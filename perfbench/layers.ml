(* Standalone per-layer loops: host ns/op and allocated words/op at one
   library boundary each, with no simulation around them. Allocation
   counts repeat exactly, so the words/op figures compare exactly
   between commits; the ns/op figures are medians of timed chunks. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Cost_model = Lrpc_sim.Cost_model
module Driver = Lrpc_workload.Driver
module Ol = Lrpc_workload.Openloop
module Qsketch = Lrpc_util.Qsketch
module Prng = Lrpc_util.Prng
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module Layout = Lrpc_idl.Layout

let median l =
  match List.sort Float.compare l with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Words allocated so far: minor + major - promoted, so a promoted
   block is not counted twice. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type cost = { ns : float; words : float }

(* Run [chunk] (which performs [ops] operations) at least three times
   and until [budget] CPU seconds have passed. The time is the least
   chunk's: host time here is disturbed in bursts (see perfbench.ml). *)
let measure ~budget ~ops chunk =
  let stop = Sys.time () +. budget in
  let times = ref [] and w = ref 0.0 in
  while List.length !times < 3 || Sys.time () < stop do
    let w0 = words () and t0 = Sys.time () in
    chunk ();
    let t1 = Sys.time () and w1 = words () in
    times := (t1 -. t0) :: !times;
    w := w1 -. w0
  done;
  let ops = float_of_int ops in
  { ns = List.fold_left Float.min Float.infinity !times *. 1e9 /. ops; words = !w /. ops }

(* One simulated thread in a tight [Engine.delay] loop, no tracer: each
   op is one timed event through the heap plus its dispatch. *)
let engine_event ~budget =
  let n = 100_000 in
  measure ~budget ~ops:n (fun () ->
      let e = Engine.create ~processors:1 ~domains:1 Cost_model.cvax_firefly in
      ignore
        (Engine.spawn e ~domain:0 (fun () ->
             for _ = 1 to n do
               Engine.delay e (Time.ns 10)
             done));
      Engine.run e)

(* Layout.plan plus Value.encode/decode of every input slot, over the
   paper's four tests; one op is one test's arguments. *)
let idl_encode ~budget =
  let cases =
    List.map
      (fun t ->
        match I.find_proc Driver.bench_interface t.Driver.proc with
        | Some p -> (Layout.of_proc p, t.Driver.args)
        | None -> failwith ("no procedure " ^ t.Driver.proc))
      (Driver.four_tests ())
  in
  let rounds = 5_000 in
  measure ~budget ~ops:(rounds * List.length cases) (fun () ->
      for _ = 1 to rounds do
        List.iter
          (fun (layout, args) ->
            let plan = Layout.plan layout ~args in
            List.iter
              (fun slot ->
                match (slot.Layout.sparam, slot.Layout.svalue) with
                | Some p, Some v ->
                    let buf = V.encode p.I.ty v in
                    let v', _ = V.decode p.I.ty buf ~off:0 in
                    if not (V.equal v v') then failwith "idl round trip"
                | _ -> ())
              (Layout.input_slots plan))
          cases
      done)

(* Arrival generation for the open-loop workload's own configuration:
   one op is one interarrival gap. *)
let arrival_gen config ~budget =
  let n = 200_000 in
  measure ~budget ~ops:n (fun () ->
      let ss = Ol.streams config in
      let k = Array.length ss in
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (Ol.next_gap ss.(i mod k)))
      done)

(* Quantile-sketch insertion of latency-like values (exponential, mean
   500 us, seeded). *)
let qsketch_add ~seed ~budget =
  let rng = Prng.create ~seed in
  let values =
    Array.init 4096 (fun _ ->
        int_of_float (Prng.exponential rng ~mean:500.0))
  in
  let n = 500_000 in
  measure ~budget ~ops:n (fun () ->
      let q = Qsketch.create () in
      for i = 0 to n - 1 do
        Qsketch.add q values.(i land 4095)
      done)

(* A fixed host-calibration loop that uses no library code: integer
   hashing into a small table plus short-lived allocation. Its time
   tracks the host's speed, so drift between two batches of runs shows
   beside the host metrics. Least and median of five, in milliseconds. *)
let calibration_ms () =
  let once () =
    let t0 = Sys.time () in
    let x = ref 0x9E3779B9 and table = Array.make 4096 0 in
    for i = 1 to 4_000_000 do
      x := ((!x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
      let j = (!x lsr 36) land 4095 in
      table.(j) <- table.(j) + i;
      if i land 63 = 0 then ignore (Sys.opaque_identity (List.init 8 Fun.id))
    done;
    ignore (Sys.opaque_identity table);
    (Sys.time () -. t0) *. 1e3
  in
  let times = List.init 5 (fun _ -> once ()) in
  (List.fold_left Float.min Float.infinity times, median times)
