(* The three benchmark workloads. Each is built from a seed through the
   libraries' public functions only, then run for a fixed simulated
   horizon; every reply is checked against what the workload sent. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Erpc = Lrpc_net.Erpc
module Fault_plan = Lrpc_fault.Plan
module Driver = Lrpc_workload.Driver
module Ol = Lrpc_workload.Openloop
module Prng = Lrpc_util.Prng
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

(* What the workload's own code saw of its calls. *)
type tally = {
  mutable attempted : int;  (** calls issued *)
  mutable ok : int;  (** calls that returned a result *)
  mutable failed : int;  (** calls that returned an error or were shed *)
  mutable bad_replies : int;  (** results that differ from the expected *)
  mutable window_ok : int;  (** successes issued inside the window *)
  lat : Fbuf.t;  (** latencies (us) of [window_ok] *)
  lateness : Fbuf.t;  (** open loop: how late measured calls started (us) *)
  batch : Fbuf.t;  (** closed_mp: simulated span of each async batch (us) *)
  mutable errors : string list;  (** correctness violations seen *)
}

type world = {
  engine : Engine.t;
  rt : Api.t;
  tracer : Lrpc_obs.Trace.t option;
  tally : tally;
  window_s : float;  (** simulated seconds of the measurement window *)
  max_in_flight : int;  (** calls that can be outstanding at once *)
  run : unit -> unit;  (** the run phase: simulate to the horizon *)
}

type workload = {
  name : string;
  horizon : Time.t;
  warmup : Time.t;
  build : Spans.t -> seed:int64 -> trace_capacity:int option -> world;
}

let new_tally () =
  {
    attempted = 0;
    ok = 0;
    failed = 0;
    bad_replies = 0;
    window_ok = 0;
    lat = Fbuf.create ();
    lateness = Fbuf.create ();
    batch = Fbuf.create ();
    errors = [];
  }

let error t msg = t.errors <- msg :: t.errors
let now_us e = Time.to_us (Engine.now e)

let config ~processors ~trace_capacity =
  {
    Driver.Config.default with
    Driver.Config.processors;
    engine_domains = Some 1;
    trace_capacity;
  }

let boot sp cfg = Spans.host sp "Driver.boot" (fun () -> Driver.boot cfg)

let create_domain sp ?machine kernel name =
  Spans.host sp "Kernel.create_domain" (fun () ->
      Kernel.create_domain ?machine kernel ~name)

let spawn sp kernel domain ~home ~name body =
  Spans.host sp "Kernel.spawn" (fun () ->
      ignore (Kernel.spawn kernel domain ~home ~name body))

let export sp rt domain iface impls =
  Spans.host sp "Api.export" (fun () ->
      ignore (Api.export rt ~domain iface ~impls))

let import sp rt domain iface =
  Spans.host sp "Api.import" (fun () ->
      Api.import rt ~domain ~interface:iface.I.interface_name)

let bytes_of rng n = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256))

(* Record one finished call of a closed loop: issued at [t0], returned
   at [t1], counted in the window when issued after warm-up. *)
let record tally sp ~warmup_us ~req ~proc ~t0 ~t1 ~parent check r =
  (match r with
  | Ok v ->
      tally.ok <- tally.ok + 1;
      if not (check v) then tally.bad_replies <- tally.bad_replies + 1;
      if t0 >= warmup_us then begin
        tally.window_ok <- tally.window_ok + 1;
        Fbuf.add tally.lat (t1 -. t0)
      end
  | Error _ -> tally.failed <- tally.failed + 1);
  Spans.sim sp ?parent ~req proc ~t0 ~t1

(* --- openloop_lrpc ------------------------------------------------------ *)

(* 2 000 Poisson sessions over 200 client domains calling Null on one
   server with 4 CPUs, at 17 000 offered calls/s: 0.72x of the 23 552
   calls/s closed-loop capacity, just under the 75 % knee. *)
let ol_sessions = 2000
let ol_domains = 200
let ol_offered_cps = 17_000.0

let openloop_config ~seed ~horizon ~warmup =
  {
    Ol.ol_seed = seed;
    ol_sessions;
    ol_offered_cps;
    ol_process = Ol.Poisson;
    ol_horizon = horizon;
    ol_warmup = warmup;
  }

let openloop_lrpc =
  let horizon = Time.ms 2000 and warmup = Time.ms 200 in
  let build sp ~seed ~trace_capacity =
    let b = boot sp (config ~processors:4 ~trace_capacity) in
    let engine = b.Driver.bt_engine
    and kernel = b.Driver.bt_kernel
    and rt = b.Driver.bt_rt in
    let server = create_domain sp kernel "server" in
    export sp rt server Driver.bench_interface Driver.bench_impls;
    let domains =
      Array.init ol_domains (fun d ->
          create_domain sp kernel (Printf.sprintf "client%d" d))
    in
    let bindings =
      Array.map (fun d -> import sp rt d Driver.bench_interface) domains
    in
    let tally = new_tally () in
    let warmup_us = Time.to_us warmup in
    let call ~session ~lateness_us =
      let t0 = now_us engine in
      let due = t0 -. lateness_us in
      tally.attempted <- tally.attempted + 1;
      match
        Api.call_result rt bindings.(session mod ol_domains) ~proc:"null" []
      with
      | Ok v ->
          let t1 = now_us engine in
          tally.ok <- tally.ok + 1;
          if v <> [] then tally.bad_replies <- tally.bad_replies + 1;
          if due >= warmup_us then begin
            tally.window_ok <- tally.window_ok + 1;
            Fbuf.add tally.lat (t1 -. due);
            Fbuf.add tally.lateness lateness_us
          end;
          Spans.sim sp ~req:session "null" ~t0:due ~t1;
          `Ok
      | Error _ ->
          tally.failed <- tally.failed + 1;
          `Shed
    in
    let spawn ~session body =
      spawn sp kernel
        domains.(session mod ol_domains)
        ~home:(session mod 4)
        ~name:(Printf.sprintf "session%d" session)
        body
    in
    let run () =
      match
        Ol.run (openloop_config ~seed ~horizon ~warmup) ~engine ~spawn ~call
      with
      | r ->
          (* The generator's own counts must agree with the calls the
             workload saw: issued = ok + failed/shed + in flight. *)
          if r.Ol.ol_issued <> tally.attempted then
            error tally "openloop issued count disagrees with the calls made";
          if r.Ol.ol_completed <> tally.ok || r.Ol.ol_shed <> tally.failed
          then error tally "openloop completed/shed counts disagree";
          if r.Ol.ol_measured <> tally.window_ok then
            error tally "openloop measured count disagrees"
      | exception Failure msg -> error tally msg
    in
    {
      engine;
      rt;
      tracer = b.Driver.bt_tracer;
      tally;
      window_s = Time.to_s (Time.sub horizon warmup);
      max_in_flight = ol_sessions;
      run;
    }
  in
  { name = "openloop_lrpc"; horizon; warmup; build }

(* --- erpc_lossy --------------------------------------------------------- *)

(* 16 closed-loop callers, one client domain each on machine 0, calling
   an echo server on machine 1 through the packet-granular transport
   under 1 % packet drop, duplication and ECN marking. Payloads of 1-5
   packets. A quarter are small, so the median latency lies inside the
   1500 B class rather than on the edge between two classes. The
   callers share one simulated CPU and each payload's size is drawn
   within +-10 % of its class: with either missing, most calls take one
   fault-free latency and the median is the same under every seed. *)
let erpc_callers = 16
let erpc_sizes = [| 64; 1500; 1500; 6000 |]

let jittered rng size =
  int_of_float (float_of_int size *. (0.9 +. Prng.float rng 0.2))
let max_payload = 8192

let echo_iface =
  I.interface "Echo"
    [
      I.proc ~result:(I.Var_bytes max_payload) "echo"
        [ I.param "b" (I.Var_bytes max_payload) ];
    ]

let erpc_lossy =
  let horizon = Time.s 6 and warmup = Time.ms 500 in
  let build sp ~seed ~trace_capacity =
    let plan =
      Fault_plan.make
        {
          Fault_plan.none with
          Fault_plan.seed;
          pkt_drop = 0.01;
          pkt_dup = 0.01;
          pkt_ecn = 0.01;
        }
    in
    let cfg =
      {
        (config ~processors:1 ~trace_capacity) with
        Driver.Config.install_faults =
          Some
            (fun rt ->
              Spans.host sp "Fault_plan.install" (fun () ->
                  Fault_plan.install plan rt));
      }
    in
    let b = boot sp cfg in
    let engine = b.Driver.bt_engine
    and kernel = b.Driver.bt_kernel
    and rt = b.Driver.bt_rt in
    let server = create_domain sp ~machine:1 kernel "server" in
    let echo = [ ("echo", fun args -> args) ] in
    let tally = new_tally () in
    let warmup_us = Time.to_us warmup in
    let rng = Prng.create ~seed in
    for c = 0 to erpc_callers - 1 do
      let client = create_domain sp kernel (Printf.sprintf "client%d" c) in
      let binding =
        Spans.host sp "Erpc.import_remote" (fun () ->
            Erpc.import_remote rt ~client ~server echo_iface ~impls:echo)
      in
      let payloads =
        Array.map (fun n -> bytes_of rng (jittered rng n)) erpc_sizes
      in
      let phase = Prng.int rng (Array.length erpc_sizes) in
      spawn sp kernel client ~home:0
        ~name:(Printf.sprintf "caller%d" c) (fun () ->
          let i = ref phase in
          while true do
            let p = payloads.(!i mod Array.length payloads) in
            incr i;
            let t0 = now_us engine in
            tally.attempted <- tally.attempted + 1;
            let r = Api.call_result rt binding ~proc:"echo" [ V.bytes p ] in
            record tally sp ~warmup_us ~req:c ~proc:"echo" ~t0
              ~t1:(now_us engine) ~parent:None
              (function [ V.Bytes q ] -> Bytes.equal p q | _ -> false)
              r
          done)
    done;
    let run () = Engine.run ~until:horizon engine in
    {
      engine;
      rt;
      tracer = b.Driver.bt_tracer;
      tally;
      window_s = Time.to_s (Time.sub horizon warmup);
      max_in_flight = erpc_callers;
      run;
    }
  in
  { name = "erpc_lossy"; horizon; warmup; build }

(* --- closed_mp ---------------------------------------------------------- *)

(* 32 callers in 32 client domains, all submitted on CPU 0 of a 16-CPU
   machine with domain caching on; each yields between rounds so the
   run queues keep redistributing work by stealing. Even callers make
   synchronous calls, odd callers pipelined batches of four. *)
let mp_callers = 32
let mp_processors = 16
let batch = 4

let closed_mp =
  let horizon = Time.ms 600 and warmup = Time.ms 50 in
  let build sp ~seed ~trace_capacity =
    let b =
      boot sp
        {
          (config ~processors:mp_processors ~trace_capacity) with
          Driver.Config.domain_caching = true;
        }
    in
    let engine = b.Driver.bt_engine
    and kernel = b.Driver.bt_kernel
    and rt = b.Driver.bt_rt in
    let server = create_domain sp kernel "server" in
    export sp rt server Driver.bench_interface Driver.bench_impls;
    let tally = new_tally () in
    let warmup_us = Time.to_us warmup in
    let rng = Prng.create ~seed in
    for c = 0 to mp_callers - 1 do
      let client = create_domain sp kernel (Printf.sprintf "client%d" c) in
      let binding = import sp rt client Driver.bench_interface in
      let buf = bytes_of rng 200 in
      (* The paper's four tests, with this caller's own 200-byte
         buffer; each comes with the reply it must produce. *)
      let tests =
        [|
          ("null", [], fun v -> v = []);
          ("add", [ V.int 1; V.int 2 ], fun v -> v = [ V.Int 3 ]);
          ("big_in", [ V.bytes buf ], fun v -> v = []);
          ( "big_in_out",
            [ V.bytes buf ],
            function [ V.Bytes q ] -> Bytes.equal q buf | _ -> false );
        |]
      in
      (* Each cycle covers the four tests once, starting at a seeded
         random test, so callers' phases keep shifting against each
         other instead of locking into one pattern for the run. *)
      let rng = Prng.split rng in
      let n = Array.length tests in
      let start = ref 0 and k = ref n in
      let take () =
        if !k = n then begin
          start := Prng.int rng n;
          k := 0
        end;
        let t = tests.((!start + !k) mod n) in
        incr k;
        t
      in
      let body () =
        while true do
          if c mod 2 = 0 then begin
            let proc, args, check = take () in
            let t0 = now_us engine in
            tally.attempted <- tally.attempted + 1;
            let r = Api.call_result rt binding ~proc args in
            record tally sp ~warmup_us ~req:c ~proc ~t0
              ~t1:(now_us engine) ~parent:None check r
          end
          else begin
            let issued =
              List.init batch (fun _ ->
                  let proc, args, check = take () in
                  let t0 = now_us engine in
                  tally.attempted <- tally.attempted + 1;
                  (proc, check, t0, Api.call_async rt binding ~proc args))
            in
            let results =
              Api.await_all_results rt
                (List.map (fun (_, _, _, h) -> h) issued)
            in
            let t1 = now_us engine in
            let bid = Spans.fresh sp in
            List.iter2
              (fun (proc, check, t0, _) r ->
                record tally sp ~warmup_us ~req:c ~proc ~t0 ~t1
                  ~parent:(Some bid) check r)
              issued results;
            let (_, _, b0, _) = List.hd issued in
            if b0 >= warmup_us then Fbuf.add tally.batch (t1 -. b0);
            Spans.sim sp ~id:bid ~req:c "batch" ~t0:b0 ~t1
          end;
          Engine.yield engine
        done
      in
      spawn sp kernel client ~home:0 ~name:(Printf.sprintf "caller%d" c) body
    done;
    let run () = Engine.run ~until:horizon engine in
    {
      engine;
      rt;
      tracer = b.Driver.bt_tracer;
      tally;
      window_s = Time.to_s (Time.sub horizon warmup);
      max_in_flight = mp_callers / 2 * (1 + batch);
      run;
    }
  in
  { name = "closed_mp"; horizon; warmup; build }

let all = [ openloop_lrpc; erpc_lossy; closed_mp ]
