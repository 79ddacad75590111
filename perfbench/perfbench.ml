(* The repository benchmark: one workload, one seed, one process.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it measures the per-layer metrics, including a run
   of the same seed with the engine's trace ring attached. Every run
   first checks the workload's outputs (see [violations]) and that the
   simulated results repeat exactly under the seed and change under a
   held-out seed; any violation exits with code 1 before a metric is
   printed. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Category = Lrpc_sim.Category
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Metrics = Lrpc_obs.Metrics
module Trace = Lrpc_obs.Trace
module Event = Lrpc_obs.Event
module Histogram = Lrpc_util.Histogram

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(* --- command line ------------------------------------------------------- *)

type args = {
  workload : World.workload;
  seed : int64;
  seconds : float;
  trace : bool;
  out : string;
}

let parse_args () =
  let get flag =
    let rec go i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let need flag = match get flag with Some v -> v | None -> die "missing %s" flag in
  let name = need "--workload" in
  let workload =
    match List.find_opt (fun w -> w.World.name = name) World.all with
    | Some w -> w
    | None -> die "unknown workload %s" name
  in
  let seed =
    match Int64.of_string_opt (need "--seed") with
    | Some s -> s
    | None -> die "--seed takes an integer"
  in
  let seconds =
    match float_of_string_opt (need "--seconds") with
    | Some s when s > 0.0 -> s
    | _ -> die "--seconds takes a positive number"
  in
  let trace =
    match need "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> die "--trace takes 0 or 1"
  in
  let out = Option.value (get "--out") ~default:"." in
  { workload; seed; seconds; trace; out }

(* A seed the run never reports on: its simulated results must differ
   from the measured seed's, which shows the seed reaches the inputs. *)
let held_out seed = Int64.logxor seed 0x5DEECE66DL

(* --- simulated summary --------------------------------------------------- *)

(* Everything simulated that the end-to-end metrics report. Under one
   seed it must be bit-identical across runs, traced or not. *)
type summary = {
  p50_us : float;
  p99_us : float;
  beyond_p99 : int;  (** samples above the p99 *)
  samples : int;
  goodput_cps : float;
  attempted : int;
  ok : int;
  failed : int;
  in_flight : int;  (** issued but not returned at the horizon *)
}

(* Nearest-rank quantile num/den of a sorted array, and how many
   samples lie above it. *)
let quantile sorted ~num ~den =
  let n = Array.length sorted in
  if n = 0 then (0.0, 0)
  else
    let r = max 1 (((num * n) + den - 1) / den) in
    (sorted.(r - 1), n - r)

let summarize (w : World.world) =
  let t = w.World.tally in
  let lat = Fbuf.sorted t.World.lat in
  let p50_us, _ = quantile lat ~num:1 ~den:2 in
  let p99_us, beyond_p99 = quantile lat ~num:99 ~den:100 in
  {
    p50_us;
    p99_us;
    beyond_p99;
    samples = Array.length lat;
    goodput_cps = float_of_int t.World.window_ok /. w.World.window_s;
    attempted = t.World.attempted;
    ok = t.World.ok;
    failed = t.World.failed;
    in_flight = t.World.attempted - t.World.ok - t.World.failed;
  }

(* Exact equality: none of the floats is ever nan. *)
let same (a : summary) b = a = b

(* --- metrics registry helpers -------------------------------------------- *)

let snapshot (w : World.world) = Metrics.snapshot (Engine.metrics w.World.engine)

let has_name name key =
  key = name || String.starts_with ~prefix:(name ^ "{") key

(* A counter summed over all its label sets. *)
let counter snap name =
  List.fold_left
    (fun acc (k, v) -> if has_name name k then acc + v else acc)
    0 snap.Metrics.counters

let gauge snap name =
  Option.value (List.assoc_opt name snap.Metrics.gauges) ~default:0.0

let labels_of key =
  match String.index_opt key '{' with
  | None -> []
  | Some i ->
      String.sub key (i + 1) (String.length key - i - 2)
      |> String.split_on_char ','
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | Some j ->
                 (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
             | None -> (kv, ""))

(* p99 of a histogram merged over all its label sets. The registry's
   default bins are 4 wide up to 4096, so the result saturates there. *)
let histogram_p99 (w : World.world) snap name =
  let m = Engine.metrics w.World.engine in
  let merged = Histogram.create ~bin_width:4 ~max_value:4096 in
  List.iter
    (fun (k, _) ->
      if has_name name k then
        Histogram.iter
          (Metrics.Histo.underlying (Metrics.histogram m ~labels:(labels_of k) name))
          (fun ~lower ~upper:_ ~count -> Histogram.add_many merged lower count))
    snap.Metrics.histograms;
  if Histogram.count merged = 0 then 0.0
  else float_of_int (Histogram.percentile merged 99.0)

(* --- correctness gate ------------------------------------------------------ *)

let violations (w : World.world) s =
  let t = w.World.tally in
  let snap = snapshot w in
  List.concat
    [
      List.rev t.World.errors;
      (if t.World.bad_replies > 0 then
         [ Printf.sprintf "%d replies differ from what was sent" t.World.bad_replies ]
       else []);
      List.map
        (fun (th, exn) ->
          Printf.sprintf "thread %s died: %s" (Engine.thread_name th)
            (Printexc.to_string exn))
        (Engine.failures w.World.engine);
      (if counter snap "net.erpc.credit_underflow" <> 0 then
         [ "net.erpc.credit_underflow is not 0" ]
       else []);
      (* issued = ok + failed/shed + in flight: the calls not yet
         returned to their caller must cover every call the runtime
         still has unlanded, and no more than can be outstanding. *)
      (let unlanded = Api.calls_in_flight w.World.rt in
       if s.in_flight < unlanded || s.in_flight > w.World.max_in_flight then
         [
           Printf.sprintf
             "issued %d - ok %d - failed %d = %d in flight, runtime has %d unlanded, at most %d possible"
             s.attempted s.ok s.failed s.in_flight unlanded w.World.max_in_flight;
         ]
       else []);
      (if s.beyond_p99 < 10 then [ "fewer than 10 samples beyond the p99" ]
       else []);
    ]

let gate what w s =
  match violations w s with
  | [] -> ()
  | vs ->
      List.iter (fun v -> prerr_endline ("perfbench: " ^ what ^ ": " ^ v)) vs;
      exit 1

(* --- one run of the workload --------------------------------------------- *)

(* On shared virtual machines host time is disturbed in bursts: on a
   2-vCPU Xeon VM a fixed loop's median over 8 s windows moved between
   11 and 19 ms while its minimum stayed within 9.6-10.3 ms. So host
   times are taken slice by slice: every run of one seed ticks the
   process CPU clock at the same points (after each setup call, and at
   [run_slices] evenly spaced simulated instants), and a phase's cost
   is the sum over its slices of the least that slice took in any run.
   Finer slices read closer to an undisturbed run: over six 30 s runs
   of closed_mp the 4096-slice sum read 15 % below the 64-slice one,
   and its spread (IQR/median) was 0.052 against 0.058. *)
let run_slices = 4096

type rep = {
  world : World.world option;  (** kept only when asked for *)
  summary : summary;
  setup_ticks : float array;  (** CPU seconds of each setup slice *)
  run_ticks : float array;  (** CPU seconds of each run-phase slice *)
  alloc_words : float;  (** words allocated during the run phase *)
  minor_words : float;
  promoted_words : float;
  major_gcs : int;
  spans : int * int;  (** ids of this run's spans: [fst, snd) *)
}

(* The intervals between consecutive ticks, from [t0]. *)
let intervals t0 ticks =
  let a = Fbuf.to_array ticks in
  Array.mapi (fun i t -> t -. if i = 0 then t0 else a.(i - 1)) a

(* Sum over slices of the least CPU time a slice took in any run. *)
let least slices =
  match slices with
  | [] -> Float.nan
  | a0 :: _ ->
      let n = Array.length a0 in
      if List.exists (fun a -> Array.length a <> n) slices then
        die "runs of one seed ticked at different points";
      let total = ref 0.0 in
      for k = 0 to n - 1 do
        total :=
          !total +. List.fold_left (fun m a -> Float.min m a.(k)) Float.infinity slices
      done;
      !total

(* Build the world, ticking after every layer call. *)
let build sp (wl : World.workload) ~seed ~trace_capacity =
  Gc.full_major ();
  Fbuf.clear sp.Spans.ticks;
  sp.Spans.ticking <- true;
  let c0 = Sys.time () in
  let world = Spans.host sp "setup" (fun () -> wl.World.build sp ~seed ~trace_capacity) in
  sp.Spans.ticking <- false;
  (world, intervals c0 sp.Spans.ticks)

let run_rep ?(keep = false) sp (wl : World.workload) ~seed ~trace_capacity =
  let first_span = sp.Spans.next_id in
  let world, setup_ticks = build sp wl ~seed ~trace_capacity in
  let engine = world.World.engine in
  (* Each tick arms the next, so the timers add one event to the
     engine's heap at a time, not [run_slices]. *)
  let rec arm k =
    if k < run_slices then
      ignore
        (Engine.at engine (wl.World.horizon * k / run_slices) (fun () ->
             Spans.tick sp;
             arm (k + 1)))
  in
  arm 1;
  Fbuf.clear sp.Spans.ticks;
  sp.Spans.ticking <- true;
  let mi0, pr0, ma0 = Gc.counters () in
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let c1 = Sys.time () in
  Spans.host sp ~engine "run" world.World.run;
  sp.Spans.ticking <- false;
  let mi1, pr1, ma1 = Gc.counters () in
  let g1 = (Gc.quick_stat ()).Gc.major_collections in
  let run_ticks = intervals c1 sp.Spans.ticks in
  let summary = summarize world in
  gate (Printf.sprintf "seed %Ld" seed) world summary;
  {
    world = (if keep then Some world else None);
    summary;
    setup_ticks;
    run_ticks;
    alloc_words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0);
    minor_words = mi1 -. mi0;
    promoted_words = pr1 -. pr0;
    major_gcs = g1 - g0;
    spans = (first_span, sp.Spans.next_id);
  }

(* Runs of [seed] until [seconds] have passed, at least [min_reps],
   all bit-identical in their simulated results. Newest first; only the
   newest keeps its world. *)
let reps_for sp wl ~seed ~seconds ~min_reps ~trace_capacity =
  let start = Unix.gettimeofday () in
  let rec loop acc n =
    if n >= min_reps && Unix.gettimeofday () -. start >= seconds then acc
    else begin
      let acc = List.map (fun r -> { r with world = None }) acc in
      let r = run_rep ~keep:true sp wl ~seed ~trace_capacity in
      loop (r :: acc) (n + 1)
    end
  in
  let reps = loop [] 0 in
  let first = (List.hd reps).summary in
  List.iter
    (fun r ->
      if not (same r.summary first) then
        die "simulated results differ between runs of seed %Ld" seed)
    reps;
  reps

(* A run of a held-out seed, whose simulated results must differ from
   the measured seed's. *)
let held_out_check sp wl ~seed (s : summary) =
  let h = run_rep sp wl ~seed:(held_out seed) ~trace_capacity:None in
  if same h.summary s then
    die "seeds %Ld and %Ld give identical simulated results" seed (held_out seed)

let median_of f reps = Layers.median (List.map f reps)

let world_of r =
  match r.world with Some w -> w | None -> die "run kept no world"

let per_call r x = x /. float_of_int r.summary.ok

(* --- output --------------------------------------------------------------- *)

let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then die "metric %s is not finite" name)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed body

let totals reps =
  List.fold_left
    (fun (a, f) r -> (a + r.summary.attempted, f + r.summary.failed))
    (0, 0) reps

(* --- end-to-end run (--trace 0) ------------------------------------------- *)

(* Setups measured in total: the runs' own plus setup-only builds. *)
let setup_samples = 31

let end_to_end (a : args) =
  let sp = Spans.create () in
  let wl = a.workload in
  let reps = reps_for sp wl ~seed:a.seed ~seconds:a.seconds ~min_reps:3 ~trace_capacity:None in
  let s = (List.hd reps).summary in
  held_out_check sp wl ~seed:a.seed s;
  let setups =
    List.map (fun r -> r.setup_ticks) reps
    @ List.init
        (max 0 (setup_samples - List.length reps))
        (fun _ -> snd (build sp wl ~seed:a.seed ~trace_capacity:None))
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let run_cpu = least (List.map (fun r -> r.run_ticks) reps) in
  let attempted, failed = totals reps in
  Printf.printf "# %s seed %Ld: %d runs of %d calls (%d ok, %d failed, %d in flight)\n"
    wl.World.name a.seed (List.length reps) s.attempted s.ok s.failed s.in_flight;
  Printf.printf
    "# latency samples %d (%d beyond p99); %d setups; run phase %.4f s cpu (median run %.4f s)\n"
    s.samples s.beyond_p99 (List.length setups) run_cpu
    (median_of (fun r -> Array.fold_left ( +. ) 0.0 r.run_ticks) reps);
  print_result ~attempted ~failed
    [
      ("sim_calls_per_host_s", "1/s", float_of_int s.ok /. run_cpu);
      ("setup_s", "s", least setups);
      ( "alloc_words_per_call",
        "words",
        median_of (fun r -> per_call r r.alloc_words) reps );
      ("peak_heap_mb", "MB", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
      ("sim_p50_us", "us", s.p50_us);
      ("sim_p99_us", "us", s.p99_us);
      ("sim_goodput_cps", "1/s", s.goodput_cps);
      ("ok_share", "ratio", float_of_int s.ok /. float_of_int (s.ok + s.failed));
    ]

(* --- per-layer run (--trace 1) ---------------------------------------------- *)

(* Ring events by kind. *)
let ring_counts tracer =
  let tbl = Hashtbl.create 16 in
  Trace.iter tracer (fun ev ->
      let k = Event.name ev.Trace.kind in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0));
  fun kind -> float_of_int (Option.value (Hashtbl.find_opt tbl kind) ~default:0)

(* Trace-ring slots for one traced run: the workloads emit 20-30 events
   per call, so nothing is dropped (obs.trace_dropped reports it). *)
let ring_capacity (s : summary) = max 65_536 (36 * s.attempted)

let setup_layers = [ "Driver.boot"; "Kernel.create_domain"; "Kernel.spawn" ]
let bind_layers = [ "Api.export"; "Api.import"; "Erpc.import_remote" ]

let charged_categories =
  Category.
    [
      Trap;
      Context_switch;
      Tlb_miss;
      Stub_client;
      Stub_server;
      Kernel_transfer;
      Copy;
      Lock;
      Exchange;
      Network;
    ]

(* Metrics read off the first traced run's world: its engine, registry
   and trace ring. Simulated counts are the same in every run of the
   seed; they are reported per completed call unless noted. *)
let world_metrics (w : World.world) (s : summary) =
  let tracer =
    match w.World.tracer with Some t -> t | None -> die "traced run has no ring"
  in
  let ring = ring_counts tracer in
  let calls = float_of_int s.ok in
  let snap = snapshot w in
  let kernel = Api.kernel w.World.rt in
  let per n = float_of_int n /. calls in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let bd = Engine.breakdown w.World.engine in
  let steals = counter snap "sim.steals" in
  let pkts = counter snap "net.erpc.pkts_sent" in
  let retx = counter snap "net.erpc.retransmits" in
  let tally = w.World.tally in
  [
    ("sim.dispatches", "count", ring "dispatch" /. calls);
    ("sim.wakes", "count", ring "wake" /. calls);
    ("sim.blocks", "count", ring "block" /. calls);
    ("sim.switches", "count", ring "switch" /. calls);
    ("sim.steals", "count", per steals);
    ("sim.steals_tagged_ratio", "ratio", ratio (counter snap "sim.steals{kind=tagged}") steals);
    ("sim.tlb_misses", "count", per (Engine.total_tlb_misses w.World.engine));
    ( "sim.lock_contended_ratio",
      "ratio",
      ratio (counter snap "sim.lock_contended") (counter snap "sim.lock_acquires") );
  ]
  @ List.map
      (fun c ->
        let us = match List.assoc_opt c bd with Some t -> Time.to_us t | None -> 0.0 in
        ("sim.charged_us." ^ Category.slug c, "us", us /. calls))
      charged_categories
  @ [
      ("kernel.prods", "count", per (Kernel.prods kernel));
      ("kernel.idle_retags", "count", per (Kernel.idle_retags kernel));
      ("kernel.exchanges", "count", ring "exchange" /. calls);
      ("core.queue_delay_p99_us", "us", histogram_p99 w snap "lrpc.queue_delay_us");
      ("core.shard_contended", "count", per (counter snap "lrpc.astack_shard_contended"));
      ("core.pool_exhausted", "count", per (counter snap "lrpc.astack_pool_exhausted"));
      ( "core.batch_sim_us_p50",
        "us",
        fst (quantile (Fbuf.sorted tally.World.batch) ~num:1 ~den:2) );
      ("net.pkts", "count", per pkts);
      ("net.useful_pkt_ratio", "ratio", ratio (pkts - retx) pkts);
      ("net.retransmits", "count", per retx);
      ("net.dup_suppressed", "count", per (counter snap "net.erpc.dup_suppressed"));
      ("net.credit_stalls", "count", per (counter snap "net.erpc.credit_stalls"));
      ("net.ecn_marks", "count", per (counter snap "net.erpc.ecn_marks"));
      ("net.zerocopy_bytes", "B", per (counter snap "net.erpc.zerocopy_bytes"));
      ("net.rtt_p99_us", "us", histogram_p99 w snap "net.erpc.rtt_us");
      ("net.dedup_peak", "count", gauge snap "net.erpc.dedup_peak");
      ( "workload.lateness_p99_us",
        "us",
        fst (quantile (Fbuf.sorted tally.World.lateness) ~num:99 ~den:100) );
      ("workload.in_flight_at_horizon", "count", float_of_int s.in_flight);
      ( "workload.failed_share",
        "ratio",
        float_of_int s.failed /. float_of_int (s.ok + s.failed) );
      ("obs.trace_events", "count", float_of_int (Trace.count tracer) /. calls);
      ("obs.trace_dropped", "count", float_of_int (Trace.dropped tracer));
    ]

let per_layer (a : args) =
  let sp = Spans.create () in
  sp.Spans.on <- true;
  let wl = a.workload in
  let untraced =
    List.map
      (fun r -> { r with world = None })
      (reps_for sp wl ~seed:a.seed ~seconds:(0.4 *. a.seconds) ~min_reps:2
         ~trace_capacity:None)
  in
  let base = List.hd untraced in
  let s = base.summary in
  held_out_check sp wl ~seed:a.seed s;
  (* Traced runs: same seed, engine ring attached; the first also
     records one simulated span per call. Its world is read and dropped
     before the next is built. *)
  let trace_capacity = Some (ring_capacity s) in
  sp.Spans.per_call <- true;
  let first = run_rep ~keep:true sp wl ~seed:a.seed ~trace_capacity in
  sp.Spans.per_call <- false;
  if not (same first.summary s) then
    die "traced and untraced runs of seed %Ld differ in simulated results" a.seed;
  let from_world = world_metrics (world_of first) s in
  let traced =
    { first with world = None }
    :: List.map
         (fun r -> { r with world = None })
         (reps_for sp wl ~seed:a.seed ~seconds:(0.2 *. a.seconds) ~min_reps:1
            ~trace_capacity)
  in
  let untraced_cpu = least (List.map (fun r -> r.run_ticks) untraced) in
  let traced_cpu = least (List.map (fun r -> r.run_ticks) traced) in
  let budget = 0.06 *. a.seconds in
  let loop name f = Spans.host sp name (fun () -> f ~budget) in
  let ev = loop "Layers.engine_event" Layers.engine_event in
  let idl = loop "Layers.idl_encode" Layers.idl_encode in
  let arr =
    loop "Layers.arrival_gen"
      (Layers.arrival_gen
         (World.openloop_config ~seed:a.seed
            ~horizon:World.openloop_lrpc.World.horizon
            ~warmup:World.openloop_lrpc.World.warmup))
  in
  let qs = loop "Layers.qsketch_add" (Layers.qsketch_add ~seed:a.seed) in
  (* Median, not least: these spans are a few microseconds each, at the
     clock's resolution, and the least sum would be biased low. *)
  let span_total names =
    median_of (fun r -> Spans.host_total sp ~ids:r.spans names) untraced
  in
  let spans_path =
    Filename.concat a.out (Printf.sprintf "spans-%s-%Ld.jsonl" wl.World.name a.seed)
  in
  Spans.write sp spans_path;
  let attempted, failed = totals (traced @ untraced) in
  Printf.printf "# %s seed %Ld: %d untraced + %d traced runs; %d spans in %s\n"
    wl.World.name a.seed (List.length untraced) (List.length traced) (Spans.count sp)
    spans_path;
  print_result ~attempted ~failed
    ([
       ("sim.run_cpu_s", "s", untraced_cpu);
       ("sim.event_ns", "ns", ev.Layers.ns);
       ("sim.event_words", "words", ev.Layers.words);
     ]
    @ from_world
    @ [
        ("kernel.setup_s", "s", span_total setup_layers);
        ("core.bind_s", "s", span_total bind_layers);
        ("idl.encode_ns", "ns", idl.Layers.ns);
        ("idl.encode_words", "words", idl.Layers.words);
        ("workload.arrival_gen_ns", "ns", arr.Layers.ns);
        ("workload.arrival_gen_words", "words", arr.Layers.words);
        ("util.qsketch_add_ns", "ns", qs.Layers.ns);
        ("util.qsketch_add_words", "words", qs.Layers.words);
        ("obs.trace_overhead", "ratio", traced_cpu /. untraced_cpu);
        ("gc.minor_words", "words", per_call base base.minor_words);
        ("gc.promoted_words", "words", per_call base base.promoted_words);
        ("gc.major_collections", "count", float_of_int base.major_gcs);
      ])

let () =
  let a = parse_args () in
  let lo, med = Layers.calibration_ms () in
  Printf.printf "# host calibration loop: min %.3f ms, median %.3f ms\n%!" lo med;
  if a.trace then per_layer a else end_to_end a
