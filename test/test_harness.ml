(* The Domain-parallel harness must be a pure wall-clock optimisation:
   fanning work across domains may never change a byte of output. The
   determinism suite regenerates the heaviest artifacts (t5, fig2) and
   the chaos soak serially and with 4 domains and compares digests. *)

module Parallel = Lrpc_harness.Parallel
module Suite = Lrpc_experiments.Suite
module Soak = Lrpc_fault.Soak
module Engine = Lrpc_sim.Engine
module Heap = Lrpc_sim.Heap
module Window = Lrpc_sim.Window
module Time = Lrpc_sim.Time

let test_map_preserves_order () =
  let out = Parallel.map ~jobs:4 (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int)) "input order" [ 1; 4; 9; 16; 25; 36; 49 ] out

let test_map_serial_matches_parallel () =
  let f x = Printf.sprintf "%d:%d" x (x * 31) in
  let items = List.init 23 Fun.id in
  Alcotest.(check (list string))
    "jobs:1 = jobs:4"
    (Parallel.map ~jobs:1 f items)
    (Parallel.map ~jobs:4 f items)

exception Boom of int

let test_map_reraises () =
  Alcotest.check_raises "exception propagates" (Boom 3) (fun () ->
      ignore
        (Parallel.map ~jobs:2
           (fun x -> if x = 3 then raise (Boom x) else x)
           [ 1; 2; 3; 4 ]))

let test_map_clamps_jobs () =
  (* More jobs than items, zero and negative jobs are all legal. *)
  Alcotest.(check (list int)) "jobs > items" [ 2; 4 ]
    (Parallel.map ~jobs:16 (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "jobs:0" [ 2; 4 ]
    (Parallel.map ~jobs:0 (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty" []
    (Parallel.map ~jobs:4 (fun x -> x) ([] : int list))

(* --- serial vs parallel artifact digests -------------------------------- *)

let digest_of_run jobs =
  let artifacts = [ "t5"; "f2" ] in
  let outputs =
    Parallel.map ~jobs (fun n -> Suite.run ~quick:true n) artifacts
  in
  Digest.to_hex (Digest.string (String.concat "\x00" outputs))

let test_artifacts_serial_vs_jobs4 () =
  Alcotest.(check string)
    "t5+fig2 digests byte-identical" (digest_of_run 1) (digest_of_run 4)

let soak_digests jobs =
  (* Four independent soaks with distinct seeds, fanned across [jobs]
     domains; each report's trace digest must not care where it ran. *)
  let seeds = [ 0xC0FFEEL; 1L; 2L; 3L ] in
  Parallel.map ~jobs
    (fun seed ->
      let r = Soak.run { Soak.default with Soak.seed; calls = 800 } in
      r.Soak.r_digest)
    seeds

let test_soak_serial_vs_jobs4 () =
  Alcotest.(check (list string))
    "soak trace digests byte-identical" (soak_digests 1) (soak_digests 4)

(* --- engine-domain digests ---------------------------------------------- *)

(* The partitioned engine's contract is stronger than the harness's:
   not only may fanning artifacts across domains not change output,
   sharding ONE simulated machine across host domains may not either.
   Same artifacts and soaks, engine domains 1 vs 2 vs 4. *)

let with_default_domains d f =
  let old = Engine.default_domains () in
  Engine.set_default_domains d;
  Fun.protect ~finally:(fun () -> Engine.set_default_domains old) f

let artifact_digest_domains d =
  (* Serial Parallel.map: the global default-domains knob must not be
     flipped while harness workers are constructing engines. *)
  with_default_domains d (fun () ->
      let outputs = List.map (fun n -> Suite.run ~quick:true n) [ "t5"; "f2" ] in
      Digest.to_hex (Digest.string (String.concat "\x00" outputs)))

let test_artifacts_across_engine_domains () =
  let base = artifact_digest_domains 1 in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "t5+fig2 digest, %d engine domains" d)
        base (artifact_digest_domains d))
    [ 2; 4 ]

let soak_digest_domains ~seed d =
  let r =
    Soak.run { Soak.default with Soak.seed; calls = 800; engine_domains = d }
  in
  r.Soak.r_digest

let test_soak_across_engine_domains () =
  List.iter
    (fun seed ->
      let base = soak_digest_domains ~seed 1 in
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "soak digest, seed %Ld, %d engine domains" seed d)
            base
            (soak_digest_domains ~seed d))
        [ 2; 4 ])
    [ 0xC0FFEEL; 7L ]

(* --- windowed merge order (property) ------------------------------------ *)

(* The ordering fact the whole design rests on: a (time, key) stream
   sharded across any number of partitions, each holding a run heap and
   a timer heap chosen by payload kind as in the engine, and drained
   through Window.select pops in exactly the order one big heap gives.
   Pushes interleave with the drain, never earlier than the last pop
   (the engine never schedules into the past). Keys are unique (the
   engine assigns them from disjoint counters), times collide freely. *)
type merge_ev = Run of int | Fire of int

let merge_matches_serial_prop =
  QCheck.Test.make ~count:300 ~name:"windowed merge = serial heap order"
    QCheck.(
      pair (int_range 1 6)
        (small_list
           (option (triple (int_range 0 7) bool (int_range 0 40)))))
    (fun (nparts, ops) ->
      (* Heap 2p is partition p's run heap, 2p + 1 its timer heap. *)
      let shards = Array.init (2 * nparts) (fun _ -> Heap.create ()) in
      let serial = Heap.create () in
      let now = ref 0 and key = ref 0 in
      let pop_both () =
        match Window.select shards with
        | -1 -> Heap.is_empty serial
        | _ when Heap.is_empty serial -> false
        | p ->
            let time = Heap.top_time shards.(p) in
            now := time;
            time = Heap.top_time serial
            && Heap.take shards.(p) = Heap.take serial
      in
      let step ok op =
        ok
        &&
        match op with
        | None -> pop_both ()
        | Some (part, timer, dt) ->
            let time = !now + Time.us dt in
            let k = !key in
            incr key;
            (* k doubles as the unique tiebreak key and the payload. *)
            let ev = if timer then Fire k else Run k in
            let h = (2 * (part mod nparts)) + if timer then 1 else 0 in
            Heap.push_key shards.(h) ~time ~key:k ev;
            Heap.push_key serial ~time ~key:k ev;
            true
      in
      let rec drain ok =
        if ok && not (Heap.is_empty serial) then drain (pop_both ()) else ok
      in
      drain (List.fold_left step true ops) && Window.select shards = -1)

let () =
  Alcotest.run "lrpc_harness"
    [
      ( "parallel map",
        [
          Alcotest.test_case "preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "serial = parallel" `Quick
            test_map_serial_matches_parallel;
          Alcotest.test_case "re-raises" `Quick test_map_reraises;
          Alcotest.test_case "clamps jobs" `Quick test_map_clamps_jobs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "artifacts serial vs --jobs 4" `Slow
            test_artifacts_serial_vs_jobs4;
          Alcotest.test_case "chaos soak serial vs --jobs 4" `Slow
            test_soak_serial_vs_jobs4;
        ] );
      ( "engine domains",
        [
          Alcotest.test_case "artifacts, engine domains 1/2/4" `Slow
            test_artifacts_across_engine_domains;
          Alcotest.test_case "chaos soaks, engine domains 1/2/4" `Slow
            test_soak_across_engine_domains;
          QCheck_alcotest.to_alcotest merge_matches_serial_prop;
        ] );
    ]
