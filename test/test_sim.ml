open Lrpc_sim

let cm = Cost_model.cvax_firefly
let cm_no_bus = { cm with Cost_model.bus_alpha = 0.0 }

let check_time = Alcotest.(check int)

(* --- Time -------------------------------------------------------------- *)

let test_time_units () =
  check_time "us" 1_000 (Time.us 1);
  check_time "ms" 1_000_000 (Time.ms 1);
  check_time "us_f rounds" 900 (Time.us_f 0.9);
  check_time "us_f rounds up" 1_667 (Time.us_f 1.667);
  Alcotest.(check (float 1e-9)) "to_us" 0.9 (Time.to_us (Time.ns 900));
  check_time "scale" 150 (Time.scale 100 1.5)

(* --- Heap -------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:30 "c";
  Heap.push h ~time:10 "a";
  Heap.push h ~time:20 "b";
  let pops = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list (option (pair int string))))
    "sorted"
    [ Some (10, "a"); Some (20, "b"); Some (30, "c") ]
    pops;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~time:5 "first";
  Heap.push h ~time:5 "second";
  Heap.push h ~time:5 "third";
  let order =
    List.init 3 (fun _ -> match Heap.pop h with Some (_, x) -> x | None -> "?")
  in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] order

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let prev = ref min_int and ok = ref true in
      let rec drain () =
        match Heap.pop h with
        | Some (t, ()) ->
            if t < !prev then ok := false;
            prev := t;
            drain ()
        | None -> ()
      in
      drain ();
      !ok)

let test_heap_take_top_time () =
  let h = Heap.create () in
  Heap.push h ~time:7 "b";
  Heap.push h ~time:3 "a";
  check_time "top_time" 3 (Heap.top_time h);
  Alcotest.(check string) "take min" "a" (Heap.take h);
  check_time "top after take" 7 (Heap.top_time h);
  Alcotest.(check string) "take next" "b" (Heap.take h);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Heap.take: empty heap") (fun () ->
      ignore (Heap.take h))

(* The run loop's pick between its run and timer heaps: earliest time
   first, the key on a time tie, the first heap when both are empty. *)
let test_heap_earlier () =
  let mk entries =
    let h = Heap.create () in
    List.iter (fun (t, k) -> Heap.push_key h ~time:t ~key:k ()) entries;
    h
  in
  let a = Heap.create () and b = Heap.create () in
  Alcotest.(check bool) "all empty: first" true (Heap.earlier a b == a);
  let a = mk [ (10, 3) ] in
  Alcotest.(check bool) "one empty: the other" true (Heap.earlier b a == a);
  let b = mk [ (5, 9) ] in
  Alcotest.(check bool) "earliest time wins" true (Heap.earlier a b == b);
  ignore (Heap.take b);
  Heap.push_key b ~time:10 ~key:2 ();
  Alcotest.(check bool) "key breaks time ties" true (Heap.earlier a b == b)

(* Random push/pop interleavings against a sorted-list reference model:
   pops must come back in nondecreasing time order with FIFO on equal
   timestamps, exactly as a stable insertion sort would produce. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list reference model" ~count:300
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      let pop_and_check () =
        match (Heap.pop h, !model) with
        | None, [] -> ()
        | Some (t, i), (t', i') :: rest when t = t' && i = i' -> model := rest
        | _ -> ok := false
      in
      List.iter
        (function
          | Some time ->
              let id = !next_id in
              incr next_id;
              Heap.push h ~time id;
              (* Stable insert: after every entry with time <= this one. *)
              let rec ins = function
                | (t', i') :: rest when t' <= time -> (t', i') :: ins rest
                | rest -> (time, id) :: rest
              in
              model := ins !model
          | None -> pop_and_check ())
        ops;
      while not (Heap.is_empty h) || !model <> [] do
        pop_and_check ();
        if not !ok then model := [] (* break out of a wedged run *)
      done;
      !ok)

(* Regression for the space leak where [pop] left the vacated slot
   holding its payload: a popped payload must be collectable once the
   caller drops it. A couple of slots are allowed to survive in
   registers/stack of this frame; before the fix, all of them did. *)
let test_heap_pop_releases_payloads () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = Bytes.make 64 'x' in
    Weak.set w i (Some payload);
    Heap.push h ~time:i payload
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "popped payloads collectable (%d still live)" !live)
    true (!live <= 2)

let test_heap_clear_releases_payloads () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = Bytes.make 64 'y' in
    Weak.set w i (Some payload);
    Heap.push h ~time:i payload
  done;
  Heap.clear h;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cleared payloads collectable (%d still live)" !live)
    true (!live <= 2)

(* --- Cost model -------------------------------------------------------- *)

let test_null_minimum_cvax () =
  (* Paper Table 2/5: the theoretical minimum on the C-VAX is 109 us. *)
  check_time "109us" (Time.us 109) (Cost_model.null_minimum cm)

let test_null_minimum_others () =
  check_time "68020 170us" (Time.us 170) (Cost_model.null_minimum Cost_model.m68020);
  check_time "PERQ 444us" (Time.us 444) (Cost_model.null_minimum Cost_model.perq_accent)

let test_tlb_miss_split () =
  Alcotest.(check int) "43 misses" 43 Cost_model.null_tlb_misses;
  Alcotest.(check int) "25+18" Cost_model.null_tlb_misses
    (Cost_model.call_side_tlb_misses + Cost_model.return_side_tlb_misses)

(* --- TLB --------------------------------------------------------------- *)

(* Touch [pages] in order; the number that missed. *)
let access_all tlb ~domain pages =
  List.fold_left
    (fun n page -> if Tlb.access tlb ~domain ~page then n + 1 else n)
    0 pages

let test_tlb_miss_then_hit () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  Alcotest.(check int) "cold misses" 3 (access_all tlb ~domain:1 [ 1; 2; 3 ]);
  Alcotest.(check int) "warm hits" 0 (access_all tlb ~domain:1 [ 1; 2; 3 ])

let test_tlb_invalidate () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  ignore (access_all tlb ~domain:1 [ 1; 2 ]);
  Tlb.invalidate tlb;
  Alcotest.(check int) "cold again" 2 (access_all tlb ~domain:1 [ 1; 2 ]);
  Alcotest.(check int) "one flush" 1 (Tlb.flush_count tlb)

let test_tlb_tagged_survives () =
  let tlb = Tlb.create ~capacity:8 ~tagged:true in
  ignore (access_all tlb ~domain:1 [ 1; 2 ]);
  Tlb.invalidate tlb;
  Alcotest.(check int) "still resident" 0 (access_all tlb ~domain:1 [ 1; 2 ]);
  (* Same page in another domain is a distinct tagged entry. *)
  Alcotest.(check int) "other domain misses" 2 (access_all tlb ~domain:2 [ 1; 2 ])

let test_tlb_untagged_shares_pages () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  ignore (access_all tlb ~domain:1 [ 7 ]);
  Alcotest.(check int) "untagged ignores domain" 0 (access_all tlb ~domain:2 [ 7 ])

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~capacity:2 ~tagged:false in
  ignore (access_all tlb ~domain:0 [ 1; 2 ]);
  ignore (access_all tlb ~domain:0 [ 1 ]);
  (* 2 is now LRU *)
  ignore (access_all tlb ~domain:0 [ 3 ]);
  Alcotest.(check bool) "1 stays" true (Tlb.resident tlb ~domain:0 ~page:1);
  Alcotest.(check bool) "2 evicted" false (Tlb.resident tlb ~domain:0 ~page:2)

let test_tlb_id_bounds () =
  let m = Tlb.max_id in
  let tagged = Tlb.create ~capacity:4 ~tagged:true in
  Alcotest.(check bool) "max ids miss" true (Tlb.access tagged ~domain:m ~page:m);
  Alcotest.(check bool) "then hit" false (Tlb.access tagged ~domain:m ~page:m);
  (* The extremes pack to distinct keys: no aliasing at the edges. *)
  Alcotest.(check int) "corners distinct" 3
    (access_all tagged ~domain:0 [ 0; m ] + access_all tagged ~domain:m [ 0 ]);
  Alcotest.(check bool) "all four resident" true
    (List.for_all
       (fun (domain, page) -> Tlb.resident tagged ~domain ~page)
       [ (0, 0); (0, m); (m, 0); (m, m) ]);
  let raises what f =
    Alcotest.check_raises what (Invalid_argument "Tlb: page id out of range")
      (fun () -> ignore (f ()))
  in
  raises "page past max" (fun () -> Tlb.access tagged ~domain:0 ~page:(m + 1));
  raises "negative page" (fun () -> Tlb.access tagged ~domain:0 ~page:(-1));
  raises "resident checks too" (fun () ->
      Tlb.resident tagged ~domain:0 ~page:(m + 1));
  Alcotest.check_raises "domain past max"
    (Invalid_argument "Tlb: domain id out of range") (fun () ->
      ignore (Tlb.access tagged ~domain:(m + 1) ~page:0));
  (* An untagged TLB never packs the domain, so any domain is accepted. *)
  let untagged = Tlb.create ~capacity:4 ~tagged:false in
  Alcotest.(check bool) "untagged max page" true
    (Tlb.access untagged ~domain:(m + 1) ~page:m);
  raises "untagged page past max" (fun () ->
      Tlb.access untagged ~domain:0 ~page:(m + 1));
  Alcotest.(check (pair int int)) "rejected touches are not misses" (4, 1)
    (Tlb.miss_count tagged, Tlb.miss_count untagged)

(* Reference model: the earlier [Hashtbl]-of-tuples LRU, kept verbatim in
   behaviour so the packed-array TLB can be checked against it. *)
module Ref_tlb = struct
  type t = {
    capacity : int;
    tagged : bool;
    entries : (int * int, int) Hashtbl.t;
    mutable clock : int;
    mutable misses : int;
    mutable flushes : int;
  }

  let create ~capacity ~tagged =
    { capacity; tagged; entries = Hashtbl.create 64; clock = 0; misses = 0; flushes = 0 }

  let invalidate t =
    if (not t.tagged) && Hashtbl.length t.entries > 0 then begin
      Hashtbl.reset t.entries;
      t.flushes <- t.flushes + 1
    end

  let key t ~domain ~page = if t.tagged then (domain, page) else (0, page)

  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k stamp ->
        match !victim with
        | Some (_, s) when s <= stamp -> ()
        | _ -> victim := Some (k, stamp))
      t.entries;
    match !victim with Some (k, _) -> Hashtbl.remove t.entries k | None -> ()

  let access t ~domain ~page =
    let k = key t ~domain ~page in
    t.clock <- t.clock + 1;
    match Hashtbl.find_opt t.entries k with
    | Some _ ->
        Hashtbl.replace t.entries k t.clock;
        false
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_lru t;
        Hashtbl.replace t.entries k t.clock;
        t.misses <- t.misses + 1;
        true

  let resident t ~domain ~page = Hashtbl.mem t.entries (key t ~domain ~page)
end

type tlb_op = Access of int * int | Invalidate | Resident of int * int

(* Ids come from a small pool that includes both packing boundaries, so
   sequences revisit entries (hits, LRU order) as well as the extremes. *)
let prop_tlb_matches_reference =
  let id = QCheck.Gen.oneofl [ 0; 1; 2; 3; 5; 8; Tlb.max_id - 1; Tlb.max_id ] in
  let op =
    QCheck.Gen.(
      frequency
        [
          (12, map2 (fun d p -> Access (d, p)) id id);
          (1, return Invalidate);
          (3, map2 (fun d p -> Resident (d, p)) id id);
        ])
  in
  let case =
    QCheck.Gen.(
      triple (oneofl [ 1; 2; 3; 64 ]) bool (list_size (int_range 0 400) op))
  in
  let print (cap, tagged, ops) =
    Printf.sprintf "capacity %d, tagged %b, %d ops" cap tagged (List.length ops)
  in
  QCheck.Test.make ~name:"tlb matches hashtbl lru reference" ~count:300
    (QCheck.make ~print case) (fun (capacity, tagged, ops) ->
      let t = Tlb.create ~capacity ~tagged in
      let r = Ref_tlb.create ~capacity ~tagged in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Access (domain, page) ->
                Tlb.access t ~domain ~page = Ref_tlb.access r ~domain ~page
            | Invalidate ->
                Tlb.invalidate t;
                Ref_tlb.invalidate r;
                true
            | Resident (domain, page) ->
                Tlb.resident t ~domain ~page = Ref_tlb.resident r ~domain ~page
          in
          same
          && Tlb.miss_count t = r.Ref_tlb.misses
          && Tlb.flush_count t = r.Ref_tlb.flushes)
        ops
      && List.for_all
           (fun domain ->
             List.for_all
               (fun page ->
                 Tlb.resident t ~domain ~page = Ref_tlb.resident r ~domain ~page)
               [ 0; 1; 2; 3; 5; 8; Tlb.max_id - 1; Tlb.max_id ])
           [ 0; 1; 2; 3; 5; 8; Tlb.max_id - 1; Tlb.max_id ])

(* --- Engine basics ------------------------------------------------------ *)

let test_delay_advances_time () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let finished = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 5);
         Engine.delay e (Time.us 7);
         finished := Engine.now e));
  Engine.run e;
  check_time "12us" (Time.us 12) !finished;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* In-thread operations at engine level fail with the engine's own typed
   exception, not an unhandled effect: outside [run], and from a timer
   callback inside it. *)
let test_delay_outside_thread () =
  let e = Engine.create ~processors:1 cm_no_bus in
  Alcotest.check_raises "before run" Engine.Not_in_thread (fun () ->
      Engine.delay e (Time.us 1));
  Alcotest.check_raises "suspend" Engine.Not_in_thread (fun () ->
      Engine.suspend e ignore);
  let from_timer = ref None in
  ignore
    (Engine.at e (Time.us 3) (fun () ->
         from_timer :=
           Some (try Engine.delay e (Time.us 1); "returned" with
                 | Engine.Not_in_thread -> "Not_in_thread")));
  Engine.run e;
  Alcotest.(check (option string)) "timer" (Some "Not_in_thread") !from_timer;
  check_time "no time consumed" (Time.us 3) (Engine.now e)

(* Timers and thread resumptions live in separate heaps; at the same
   simulated instant they must still run in push (key) order. *)
let test_timer_resumption_tie_order () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let note s = log := (s, Engine.now e) :: !log in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 (fun () ->
         (* Timer pushed before the resumption: it fires first. *)
         let t0 = Engine.now e in
         ignore
           (Engine.at e (Time.add t0 (Time.us 10)) (fun () -> note "timer1"));
         Engine.delay e (Time.us 10);
         note "thread1";
         (* Resumption pushed before the timer: a zero-delay timer runs
            once the thread parks, and only then arms the one due with
            the resumption. *)
         let t1 = Engine.now e in
         ignore
           (Engine.at e t1 (fun () ->
                ignore
                  (Engine.at e (Time.add t1 (Time.us 10)) (fun () ->
                       note "timer2"))));
         Engine.delay e (Time.us 10);
         note "thread2"));
  Engine.run e;
  let got = List.rev !log in
  let t1 = snd (List.hd got) in
  Alcotest.(check (list (pair string int)))
    "serial: push order at equal instants"
    [
      ("timer1", t1);
      ("thread1", t1);
      ("thread2", t1 + Time.us 10);
      ("timer2", t1 + Time.us 10);
    ]
    got

(* Far-future timers parked in the timer heap are invisible to delay
   loops: resumption order and times match the run without them, and
   each timer still fires at its own instant. *)
let test_parked_timer_invisible_to_delays () =
  let run ~parked =
    let e = Engine.create ~processors:2 cm_no_bus in
    let log = ref [] in
    if parked then
      for i = 1 to 50 do
        ignore
          (Engine.at e (Time.ms (10 + i)) (fun () ->
               log := (-i, Engine.now e) :: !log))
      done;
    for i = 0 to 3 do
      ignore
        (Engine.spawn e ~domain:i (fun () ->
             for _ = 1 to 20 do
               Engine.delay e (Time.us ((i mod 3) + 1));
               log := (i, Engine.now e) :: !log
             done))
    done;
    Engine.run e;
    List.rev !log
  in
  let plain = run ~parked:false and with_timers = run ~parked:true in
  let resumptions = List.filter (fun (i, _) -> i >= 0) with_timers in
  Alcotest.(check (list (pair int int)))
    "same resumption order" plain resumptions;
  Alcotest.(check (list (pair int int)))
    "timers fire last, at their own instants"
    (List.init 50 (fun k -> (-(k + 1), Time.ms (11 + k))))
    (List.filter (fun (i, _) -> i < 0) with_timers)

let test_two_threads_one_cpu_serialize () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let worker name =
    ignore
      (Engine.spawn e ~domain:0 ~name (fun () ->
           Engine.delay e (Time.us 10);
           log := (name, Engine.now e) :: !log;
           Engine.yield e;
           Engine.delay e (Time.us 10);
           log := (name, Engine.now e) :: !log))
  in
  worker "a";
  worker "b";
  Engine.run e;
  (* Thread b only starts after a yields; one CPU means full serialization
     of delays. The final event is at 40us. *)
  match !log with
  | (_, last) :: _ -> check_time "total serialized" (Time.us 40) last
  | [] -> Alcotest.fail "no events"

let test_two_cpus_parallel () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i (fun () ->
           Engine.delay e (Time.us 100);
           done_at.(i) <- Engine.now e))
  done;
  Engine.run e;
  check_time "cpu0 parallel" (Time.us 100) done_at.(0);
  check_time "cpu1 parallel" (Time.us 100) done_at.(1)

let test_block_wake () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let waiter_done = ref 0 in
  let waiter =
    Engine.spawn e ~domain:0 ~name:"waiter" (fun () ->
        Engine.block e;
        waiter_done := Engine.now e)
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"waker" (fun () ->
         Engine.delay e (Time.us 50);
         Engine.wake e waiter));
  Engine.run e;
  check_time "woken at 50" (Time.us 50) !waiter_done

let test_spawn_failure_recorded () =
  let e = Engine.create ~processors:1 cm_no_bus in
  ignore (Engine.spawn e ~domain:0 (fun () -> failwith "boom"));
  Engine.run e;
  match Engine.failures e with
  | [ (_, Failure msg) ] -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected one failure"

let test_kill_blocked_thread () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let saw_exn = ref false in
  let victim =
    Engine.spawn e ~domain:0 (fun () ->
        (try Engine.block e
         with Engine.Thread_killed as ex ->
           saw_exn := true;
           raise ex);
        ())
  in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 1);
         Engine.kill e victim));
  Engine.run e;
  Alcotest.(check bool) "exn delivered" true !saw_exn;
  Alcotest.(check bool) "victim dead" false (Engine.alive victim);
  Alcotest.(check (list pass)) "kill is not a failure" [] (Engine.failures e)

let test_interrupt_with_custom_exn () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let caught = ref "" in
  let victim =
    Engine.spawn e ~domain:0 (fun () ->
        try Engine.block e with Failure m -> caught := m)
  in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 2);
         Engine.interrupt e victim (Failure "call-failed")));
  Engine.run e;
  Alcotest.(check string) "caught" "call-failed" !caught

let test_context_switch_charged_on_dispatch () =
  let e = Engine.create ~processors:1 cm_no_bus in
  (* First placements are free (processes pre-exist the measurement), but
     re-dispatching a woken thread onto a processor whose loaded context
     differs charges one VM reload. *)
  let a =
    Engine.spawn e ~domain:3 (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 1))
  in
  ignore
    (Engine.spawn e ~domain:5 (fun () ->
         Engine.delay e (Time.us 10);
         Engine.wake e a));
  Engine.run e;
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "one vm reload" cm.Cost_model.vm_reload ctx;
  let cpu0 = (Engine.cpus e).(0) in
  Alcotest.(check (option int)) "context loaded" (Some 3) cpu0.Engine.context

let test_switch_self_context () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let th = ref None in
  ignore
    (Engine.spawn e ~domain:1 (fun () ->
         th := Some (Engine.self e);
         Engine.switch_self_context e ~domain:2;
         Alcotest.(check int) "domain updated" 2
           (Engine.thread_domain (Engine.self e))));
  Engine.run e;
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  (* Initial dispatch is free; only the explicit crossing is charged. *)
  check_time "one vm reload" cm.Cost_model.vm_reload ctx

let test_touch_pages_charges_misses () =
  let e = Engine.create ~processors:1 cm_no_bus in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         let touch () =
           let tlb = (Engine.current_cpu e).Engine.tlb in
           Engine.charge_tlb_misses e (access_all tlb ~domain:0 [ 100; 101; 102 ])
         in
         touch ();
         (* warm now *)
         touch ()));
  Engine.run e;
  let tlb =
    List.assoc_opt Category.Tlb_miss (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "3 misses once" (3 * cm.Cost_model.tlb_miss) tlb;
  Alcotest.(check int) "counter" 3 (Engine.total_tlb_misses e)

let test_handoff_direct_transfer () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  let server =
    Engine.spawn e ~domain:1 ~name:"server" (fun () ->
        Engine.block e;
        order := "server" :: !order;
        Engine.delay e (Time.us 5))
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"client" (fun () ->
         Engine.delay e (Time.us 1);
         order := "client" :: !order;
         Engine.handoff e ~to_:server));
  Engine.run e;
  Alcotest.(check (list string)) "handoff order" [ "server"; "client" ] !order;
  Alcotest.(check int) "client still blocked" 1
    (List.length (Engine.stuck_threads e))

let test_exchange_processors () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let landed = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 (fun () ->
         Engine.delay e (Time.us 1);
         let cpus = Engine.cpus e in
         (* cpu1 idles; pretend it holds the server context (domain 9). *)
         cpus.(1).Engine.context <- Some 9;
         Engine.exchange_processors e ~target:cpus.(1);
         Engine.switch_self_context e ~domain:9;
         landed := (Engine.current_cpu e).Engine.idx));
  Engine.run e;
  Alcotest.(check int) "on cpu1" 1 !landed;
  let exch =
    List.assoc_opt Category.Exchange (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "exchange charged" cm.Cost_model.processor_exchange exch;
  (* Crucially, no context switch was charged at all: the whole point of
     domain caching. *)
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "no reload" Time.zero ctx

let test_bus_contention_dilates () =
  let e = Engine.create ~processors:2 { cm with Cost_model.bus_alpha = 0.5 } in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Engine.delay e (Time.us 100);
           done_at.(i) <- Engine.now e))
  done;
  Engine.run e;
  (* Both threads execute concurrently: factor 1.5. *)
  check_time "dilated" (Time.us 150) done_at.(0);
  check_time "dilated" (Time.us 150) done_at.(1)

let test_run_until_horizon () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let ticks = ref 0 in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         while true do
           Engine.delay e (Time.us 10);
           incr ticks
         done));
  Engine.run ~until:(Time.us 95) e;
  Alcotest.(check int) "9 ticks" 9 !ticks

let test_ready_queue_overflow_threads () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let completed = ref 0 in
  for i = 0 to 9 do
    ignore
      (Engine.spawn e ~domain:i (fun () ->
           Engine.delay e (Time.us 10);
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 10 !completed;
  (* 10 threads x 10us over 2 cpus = 50us of makespan. *)
  check_time "makespan" (Time.us 50) (Engine.now e)

(* --- Run queues and stealing ------------------------------------------------ *)

(* One processor, 20 threads that each yield three times: every yield
   re-enqueues behind the other 19, so the ring (initially 8 cells) must
   grow twice and then wrap on every lap while keeping strict FIFO
   order. *)
let test_ring_grows_and_wraps () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  for i = 0 to 19 do
    ignore
      (Engine.spawn e ~domain:0 (fun () ->
           for _ = 1 to 3 do
             order := i :: !order;
             Engine.yield e
           done))
  done;
  (* Thread 0 was placed at spawn; the other 19 wait. *)
  Alcotest.(check int) "queued after spawns" 19 (Engine.queued_threads e);
  Engine.run e;
  let lap = List.init 20 Fun.id in
  Alcotest.(check (list int)) "round-robin" (lap @ lap @ lap) (List.rev !order);
  Alcotest.(check int) "queues drained" 0 (Engine.queued_threads e);
  Alcotest.(check int) "ring grew" 32
    (Array.length (Engine.cpus e).(0).Engine.rq_stamps)

(* CPU 0 runs a long thread while four threads homed there queue behind
   it: u1 (domain 1), t1 (domain 5), u2 (domain 2), t2 (domain 5), in
   that order. CPU 1, whose loaded context is domain 5, steals each time
   it frees up:
   - at 100 us t1, the oldest tagged entry, over the older untagged u1;
   - at 150 us t1 yields and re-enqueues on CPU 0 behind t2, leaving a
     ghost of its first entry ahead of t2; the scan must skip the ghost
     and take t2;
   - at 250 us t1 again (its live entry, tagged);
   - from 300 us nothing tagged is left, so the oldest overall: u1, then
     u2. *)
let test_steal_preference () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let runs = ref [] in
  let note name = runs := (name, Engine.now e) :: !runs in
  let on_cpu1 name body =
    fun () ->
      if (Engine.current_cpu e).Engine.idx <> 1 then
        Alcotest.failf "%s ran on CPU %d" name (Engine.current_cpu e).Engine.idx;
      body ()
  in
  let spawn ~name ~home ~domain body =
    ignore (Engine.spawn e ~name ~home ~domain body)
  in
  spawn ~name:"long" ~home:0 ~domain:0 (fun () -> Engine.delay e (Time.us 1000));
  spawn ~name:"b" ~home:1 ~domain:5
    (on_cpu1 "b" (fun () ->
         note "b";
         Engine.delay e (Time.us 100)));
  let short name domain =
    spawn ~name ~home:0 ~domain
      (on_cpu1 name (fun () ->
           note name;
           Engine.delay e (Time.us 100)))
  in
  short "u1" 1;
  spawn ~name:"t1" ~home:0 ~domain:5
    (on_cpu1 "t1" (fun () ->
         note "t1";
         Engine.delay e (Time.us 50);
         Engine.yield e;
         note "t1";
         Engine.delay e (Time.us 50)));
  short "u2" 2;
  short "t2" 5;
  Alcotest.(check int) "queued on cpu 0" 4 (Engine.queued_threads e);
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "cpu 1 run order"
    [
      ("b", Time.us 0);
      ("t1", Time.us 100);
      ("t2", Time.us 150);
      ("t1", Time.us 250);
      ("u1", Time.us 300);
      ("u2", Time.us 400);
    ]
    (List.rev !runs);
  let c1 = (Engine.cpus e).(1) in
  Alcotest.(check int) "tagged steals" 3 c1.Engine.steals_tagged;
  Alcotest.(check int) "retagging steals" 2 c1.Engine.steals;
  Alcotest.(check int) "queues drained" 0 (Engine.queued_threads e)

(* A fixed 4-CPU mix of homed yielders, unpinned workers and a
   block/wake pair. The idle hook runs whenever a free processor finds
   nothing to run or steal; skipping the steal scan when no thread is
   queued must not change how often that is. The counts were measured
   on the engine before the skip existed. *)
let test_idle_hook_count () =
  let e = Engine.create ~processors:4 cm in
  let idle = ref 0 in
  Engine.set_idle_hook e (fun _ -> incr idle);
  for i = 0 to 5 do
    ignore
      (Engine.spawn e ~home:0 ~domain:(i mod 2) (fun () ->
           for _ = 1 to 4 do
             Engine.delay e (Time.us (5 + i));
             Engine.yield e
           done))
  done;
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:(2 + i) (fun () ->
           for _ = 1 to 3 do
             Engine.delay e (Time.us 7)
           done))
  done;
  let waiter =
    Engine.spawn e ~domain:3 (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 20))
  in
  ignore
    (Engine.spawn e ~domain:4 (fun () ->
         Engine.delay e (Time.us 40);
         Engine.wake e waiter;
         Engine.delay e (Time.us 10)));
  Engine.run e;
  Alcotest.(check int) "idle hook calls" 17 !idle;
  Alcotest.(check int) "steals" 24 (Engine.total_steals e)

(* --- Spinlock ----------------------------------------------------------- *)

let test_spinlock_mutual_exclusion () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let lk = Spinlock.create e in
  let in_cs = ref 0 and max_in_cs = ref 0 and total = ref 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           for _ = 1 to 20 do
             Spinlock.acquire lk;
             incr in_cs;
             if !in_cs > !max_in_cs then max_in_cs := !in_cs;
             Engine.delay e (Time.us 3);
             decr in_cs;
             incr total;
             Spinlock.release lk;
             Engine.delay e (Time.us 1)
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "never two holders" 1 !max_in_cs;
  Alcotest.(check int) "all sections ran" 40 !total

let test_spinlock_serializes_throughput () =
  (* Two CPUs, but a critical section of 10us per 10us of work: the lock
     fully serializes, so 2 CPUs take as long as 1 would. *)
  let run_with cpus =
    let e = Engine.create ~processors:cpus cm_no_bus in
    let lk = Spinlock.create e in
    let ops = ref 0 in
    for i = 0 to cpus - 1 do
      ignore
        (Engine.spawn e ~domain:i ~home:i (fun () ->
             while true do
               Spinlock.with_lock lk ~hold:(Time.us 10) (fun () -> incr ops)
             done))
    done;
    Engine.run ~until:(Time.ms 1) e;
    !ops
  in
  let one = run_with 1 and two = run_with 2 in
  Alcotest.(check bool) "no speedup from second cpu" true
    (abs (one - two) <= 2)

let test_spinlock_release_by_nonholder_rejected () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let lk = Spinlock.create ~name:"l" e in
  ignore (Engine.spawn e ~domain:0 (fun () -> Spinlock.release lk));
  Engine.run e;
  match Engine.failures e with
  | [ (_, Invalid_argument _) ] -> ()
  | _ -> Alcotest.fail "expected Invalid_argument failure"

let test_spinlock_fifo () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let lk = Spinlock.create e in
  let order = ref [] in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           (* Stagger arrival so the queue order is deterministic. *)
           Engine.delay e (Time.us i);
           Spinlock.acquire lk;
           order := i :: !order;
           Engine.delay e (Time.us 10);
           Spinlock.release lk))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo handover" [ 0; 1; 2 ] (List.rev !order)

(* --- Waitq --------------------------------------------------------------- *)

let test_waitq_signal_fifo () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Engine.delay e (Time.us i);
           Waitq.wait q;
           woken := i :: !woken))
  done;
  ignore
    (Engine.spawn e ~domain:2 ~home:2 (fun () ->
         Engine.delay e (Time.us 10);
         ignore (Waitq.signal q);
         Engine.delay e (Time.us 10);
         ignore (Waitq.signal q)));
  Engine.run e;
  Alcotest.(check (list int)) "fifo wake order" [ 0; 1 ] (List.rev !woken)

let test_waitq_signal_empty () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let q = Waitq.create e in
  let result = ref true in
  ignore (Engine.spawn e ~domain:0 (fun () -> result := Waitq.signal q));
  Engine.run e;
  Alcotest.(check bool) "no waiter" false !result

let test_waitq_skips_dead_waiters () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let q = Waitq.create e in
  let second_woken = ref false in
  let first =
    Engine.spawn e ~domain:0 ~home:0 (fun () ->
        Waitq.wait q;
        Alcotest.fail "dead waiter must not wake")
  in
  ignore
    (Engine.spawn e ~domain:1 ~home:1 (fun () ->
         Engine.delay e (Time.us 1);
         Waitq.wait q;
         second_woken := true));
  ignore
    (Engine.spawn e ~domain:1 ~home:1 (fun () ->
         Engine.delay e (Time.us 2);
         Engine.kill e first;
         Engine.delay e (Time.us 2);
         ignore (Waitq.signal q)));
  Engine.run e;
  Alcotest.(check bool) "live waiter got the signal" true !second_woken

let test_waitq_broadcast () =
  let e = Engine.create ~processors:4 cm_no_bus in
  let q = Waitq.create e in
  let woken = ref 0 in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Waitq.wait q;
           incr woken))
  done;
  ignore
    (Engine.spawn e ~domain:3 ~home:3 (fun () ->
         Engine.delay e (Time.us 1);
         Alcotest.(check int) "3 woken" 3 (Waitq.broadcast q)));
  Engine.run e;
  Alcotest.(check int) "all resumed" 3 !woken

(* --- Trace ----------------------------------------------------------------- *)

let test_trace_ring_bounded () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit tr ~at:i ~tid:i ~cpu:0
      (Lrpc_obs.Event.Mark { name = "k"; detail = "" })
  done;
  Alcotest.(check int) "total counts all" 10 (Trace.count tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "ring keeps 4" 4 (List.length evs);
  Alcotest.(check (list int)) "most recent, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.tid) evs);
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.count tr)

let test_engine_traces_lifecycle () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let tr = Trace.create () in
  Engine.set_tracer e (Some tr);
  let server =
    Engine.spawn e ~domain:1 ~name:"srv" (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 5))
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"cli" (fun () ->
         Engine.delay e (Time.us 1);
         Engine.switch_self_context e ~domain:2;
         Engine.wake e server));
  Engine.run e;
  let kinds k = List.length (Trace.find tr ~kind:k) in
  Alcotest.(check bool) "dispatches" true (kinds "dispatch" >= 3);
  Alcotest.(check int) "one block" 1 (kinds "block");
  Alcotest.(check int) "one wake" 1 (kinds "wake");
  Alcotest.(check int) "one explicit switch" 1 (kinds "switch");
  Alcotest.(check int) "two finishes" 2 (kinds "finish");
  Alcotest.(check bool) "dump renders" true (String.length (Trace.dump tr) > 50);
  (* detaching stops emission *)
  Engine.set_tracer e None;
  let before = Trace.count tr in
  ignore (Engine.spawn e ~domain:0 (fun () -> ()));
  Engine.run e;
  Alcotest.(check int) "detached" before (Trace.count tr)

let test_engine_yield_to () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  let consumer =
    Engine.spawn e ~domain:0 ~name:"consumer" (fun () ->
        Engine.block e;
        order := "consumer" :: !order)
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"producer" (fun () ->
         Engine.delay e (Time.us 1);
         order := "producer-before" :: !order;
         Engine.yield_to e ~to_:consumer;
         (* still runnable: resumes once the consumer releases the cpu *)
         order := "producer-after" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "yield_to order"
    [ "producer-before"; "consumer"; "producer-after" ]
    (List.rev !order)

(* --- Deprecated engine domains stub ---------------------------------------- *)

(* [~domains] survives only so older callers still compile: 1 is the one
   accepted value. *)
let test_engine_domains_stub () =
  ignore (Engine.create ~processors:2 ~domains:1 cm);
  List.iter
    (fun d ->
      match Engine.create ~processors:2 ~domains:d cm with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "domains:%d accepted" d))
    [ 0; 2; 4 ]

(* [~domains:1] must be the default engine, not a second code path: the
   same threads give the same event log with and without it. *)
let test_engine_domains_one_is_default () =
  let trace domains =
    let e = Engine.create ~processors:2 ?domains cm in
    let log = Buffer.create 64 in
    for i = 0 to 5 do
      ignore
        (Engine.spawn e ~domain:(i mod 3) (fun () ->
             for _ = 1 to 3 do
               Engine.delay e (Time.us ((i mod 4) + 1));
               Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e))
             done))
    done;
    Engine.run e;
    Buffer.contents log
  in
  Alcotest.(check string) "event log" (trace None) (trace (Some 1))

(* The matching stub on [Driver.Config.engine_domains]: [None] and
   [Some 1] boot, anything else is refused at [Driver.boot]. *)
let test_driver_engine_domains_stub () =
  let boot d =
    Lrpc_workload.Driver.boot
      { Lrpc_workload.Driver.Config.default with engine_domains = d }
  in
  ignore (boot None);
  ignore (boot (Some 1));
  List.iter
    (fun d ->
      match boot (Some d) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "engine_domains:%d accepted" d))
    [ 0; 2 ]

(* --- Counter hygiene ------------------------------------------------------ *)

(* Steal / TLB counters belong to one engine instance: zero at birth,
   with or without a topology, so no run can inherit another world's
   totals (each Driver.boot builds a fresh engine). *)
let test_fresh_engine_counters_zero () =
  let check_engine (e : Engine.t) =
    Alcotest.(check int) "total steals" 0 (Engine.total_steals e);
    Alcotest.(check int) "near steals" 0 (Engine.total_steals_near e);
    Alcotest.(check int) "far steals" 0 (Engine.total_steals_far e);
    Alcotest.(check int) "tlb misses" 0 (Engine.total_tlb_misses e);
    Array.iter
      (fun c ->
        Alcotest.(check int) "cpu steals" 0 c.Engine.steals;
        Alcotest.(check int) "cpu tagged" 0 c.Engine.steals_tagged;
        Alcotest.(check int) "cpu near" 0 c.Engine.steals_near;
        Alcotest.(check int) "cpu far" 0 c.Engine.steals_far;
        check_time "cpu spin" 0 c.Engine.lock_spin)
      (Engine.cpus e)
  in
  check_engine (Engine.create ~processors:4 cm);
  check_engine
    (Engine.create ~processors:8
       (Cost_model.clustered ~cluster_size:4 ~name:"clu4" cm))

(* --- Victim-ring property ------------------------------------------------- *)

(* Every thief's scan order is a permutation of the other CPUs — no
   queue unreachable, none visited twice — and distance-ordered: all
   same-cluster victims precede every cross-cluster one. *)
let prop_victim_ring_covers =
  QCheck.Test.make ~name:"victim rings cover every other CPU exactly once"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 48))
    (fun (cluster_size, cpus) ->
      let model = Cost_model.clustered ~cluster_size ~name:"clu" cm in
      let topo = Option.get model.Cost_model.topology in
      let ok = ref true in
      for cpu = 0 to cpus - 1 do
        let ring = Cost_model.victim_ring topo ~cpus ~cpu in
        if Array.length ring <> cpus - 1 then ok := false;
        let seen = Array.make cpus 0 in
        Array.iter (fun v -> seen.(v) <- seen.(v) + 1) ring;
        Array.iteri
          (fun i n -> if n <> if i = cpu then 0 else 1 then ok := false)
          seen;
        let my = Cost_model.cluster_of topo cpu in
        let crossed = ref false in
        Array.iter
          (fun v ->
            if Cost_model.cluster_of topo v <> my then crossed := true
            else if !crossed then ok := false)
          ring
      done;
      !ok)

(* --- Determinism property ------------------------------------------------ *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"simulation runs are reproducible" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 20))
    (fun (cpus, nthreads) ->
      let trace () =
        let e = Engine.create ~processors:cpus cm in
        let log = Buffer.create 128 in
        for i = 0 to nthreads - 1 do
          ignore
            (Engine.spawn e ~domain:(i mod 3) (fun () ->
                 for _ = 1 to 5 do
                   Engine.delay e (Time.us ((i mod 7) + 1));
                   Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e))
                 done))
        done;
        Engine.run e;
        Buffer.contents log
      in
      String.equal (trace ()) (trace ()))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_sorted;
        prop_heap_model;
        prop_victim_ring_covers;
        prop_engine_deterministic;
        prop_tlb_matches_reference;
      ]
  in
  Alcotest.run "lrpc_sim"
    [
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "take/top_time" `Quick test_heap_take_top_time;
          Alcotest.test_case "earlier head" `Quick test_heap_earlier;
          Alcotest.test_case "pop releases payloads" `Quick
            test_heap_pop_releases_payloads;
          Alcotest.test_case "clear releases payloads" `Quick
            test_heap_clear_releases_payloads;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "cvax null minimum" `Quick test_null_minimum_cvax;
          Alcotest.test_case "other minimums" `Quick test_null_minimum_others;
          Alcotest.test_case "tlb miss split" `Quick test_tlb_miss_split;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "miss then hit" `Quick test_tlb_miss_then_hit;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "tagged survives" `Quick test_tlb_tagged_survives;
          Alcotest.test_case "untagged shares" `Quick test_tlb_untagged_shares_pages;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "id bounds" `Quick test_tlb_id_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances time" `Quick test_delay_advances_time;
          Alcotest.test_case "delay outside thread" `Quick test_delay_outside_thread;
          Alcotest.test_case "timer/resumption ties" `Quick
            test_timer_resumption_tie_order;
          Alcotest.test_case "deprecated domains stub" `Quick
            test_engine_domains_stub;
          Alcotest.test_case "parked timers invisible" `Quick
            test_parked_timer_invisible_to_delays;
          Alcotest.test_case "one cpu serializes" `Quick test_two_threads_one_cpu_serialize;
          Alcotest.test_case "two cpus parallel" `Quick test_two_cpus_parallel;
          Alcotest.test_case "block/wake" `Quick test_block_wake;
          Alcotest.test_case "failure recorded" `Quick test_spawn_failure_recorded;
          Alcotest.test_case "kill blocked" `Quick test_kill_blocked_thread;
          Alcotest.test_case "interrupt custom exn" `Quick test_interrupt_with_custom_exn;
          Alcotest.test_case "dispatch context switch" `Quick test_context_switch_charged_on_dispatch;
          Alcotest.test_case "switch self context" `Quick test_switch_self_context;
          Alcotest.test_case "touch pages" `Quick test_touch_pages_charges_misses;
          Alcotest.test_case "handoff" `Quick test_handoff_direct_transfer;
          Alcotest.test_case "exchange processors" `Quick test_exchange_processors;
          Alcotest.test_case "bus contention" `Quick test_bus_contention_dilates;
          Alcotest.test_case "run until" `Quick test_run_until_horizon;
          Alcotest.test_case "more threads than cpus" `Quick test_ready_queue_overflow_threads;
          Alcotest.test_case "fresh counters zero" `Quick
            test_fresh_engine_counters_zero;
        ] );
      (* Alcotest fits test names into the width the longest suite name
         leaves; this is the longest one, so the property names below print
         as they always have. *)
      ( "deprecated domains",
        [
          Alcotest.test_case "domains 1 is the default" `Quick
            test_engine_domains_one_is_default;
          Alcotest.test_case "driver config stub" `Quick
            test_driver_engine_domains_stub;
        ] );
      ( "run queues",
        [
          Alcotest.test_case "ring grows and wraps" `Quick
            test_ring_grows_and_wraps;
          Alcotest.test_case "steal preference" `Quick test_steal_preference;
          Alcotest.test_case "idle hook count" `Quick test_idle_hook_count;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "engine lifecycle" `Quick test_engine_traces_lifecycle;
          Alcotest.test_case "yield_to" `Quick test_engine_yield_to;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutual_exclusion;
          Alcotest.test_case "serializes" `Quick test_spinlock_serializes_throughput;
          Alcotest.test_case "non-holder release" `Quick test_spinlock_release_by_nonholder_rejected;
          Alcotest.test_case "fifo" `Quick test_spinlock_fifo;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "signal fifo" `Quick test_waitq_signal_fifo;
          Alcotest.test_case "signal empty" `Quick test_waitq_signal_empty;
          Alcotest.test_case "skips dead" `Quick test_waitq_skips_dead_waiters;
          Alcotest.test_case "broadcast" `Quick test_waitq_broadcast;
        ] );
      ("properties", qsuite);
    ]
