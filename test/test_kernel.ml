open Lrpc_sim
open Lrpc_kernel

let cm = Cost_model.cvax_firefly

let boot ?(processors = 1) () =
  let e = Engine.create ~processors cm in
  (e, Kernel.boot e)

(* --- domains --------------------------------------------------------------- *)

let test_domain_ids_unique () =
  let _, k = boot () in
  let a = Kernel.create_domain k ~name:"a" in
  let b = Kernel.create_domain k ~name:"b" in
  Alcotest.(check bool) "distinct" true (a.Pdomain.id <> b.Pdomain.id);
  Alcotest.(check bool) "kernel is 0" true ((Kernel.kernel_domain k).Pdomain.id = 0);
  Alcotest.(check int) "find" a.Pdomain.id
    (Option.get (Kernel.find_domain k a.Pdomain.id)).Pdomain.id

let test_domain_machine () =
  let _, k = boot () in
  let local = Kernel.create_domain k ~name:"l" in
  let remote = Kernel.create_domain k ~machine:2 ~name:"r" in
  Alcotest.(check bool) "local pair" true (Pdomain.is_local local local);
  Alcotest.(check bool) "remote pair" false (Pdomain.is_local local remote)

(* --- memory --------------------------------------------------------------- *)

let test_page_budget_enforced () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~page_limit:10 ~name:"small" in
  let pages = Kernel.alloc_pages k d 10 in
  Alcotest.(check int) "got 10" 10 (List.length pages);
  Alcotest.check_raises "budget" Out_of_memory (fun () ->
      ignore (Kernel.alloc_pages k d 1));
  Kernel.free_pages k d pages;
  Alcotest.(check int) "freed" 0 d.Pdomain.pages_allocated

let test_pages_never_reused () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let a = Kernel.alloc_pages k d 5 in
  Kernel.free_pages k d a;
  let b = Kernel.alloc_pages k d 5 in
  List.iter
    (fun p -> Alcotest.(check bool) "fresh ids" false (List.mem p a))
    b

let test_region_rounds_to_pages () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  (* 513 bytes on 512-byte pages = 2 pages *)
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:513 ~mapped:[ d ] in
  Alcotest.(check int) "2 pages" 2 (List.length r.Vm.pages);
  Alcotest.(check int) "charged" 2 d.Pdomain.pages_allocated

let test_region_release () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:512 ~mapped:[ d ] in
  Kernel.release_region k ~owner:d r;
  Alcotest.(check bool) "invalid" false r.Vm.region_valid;
  Alcotest.(check int) "pages back" 0 d.Pdomain.pages_allocated;
  Alcotest.(check bool) "no access" false (Vm.accessible r d)

let test_dead_domain_cannot_allocate () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  Kernel.terminate_domain k d;
  Alcotest.check_raises "terminated" (Kernel.Domain_terminated "d") (fun () ->
      ignore (Kernel.alloc_pages k d 1))

(* --- Vm data movement -------------------------------------------------------- *)

let test_vm_write_read () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  Vm.write_bytes ~by:d r ~off:8 (Bytes.of_string "payload");
  let back = Vm.read_bytes ~by:d r ~off:8 ~len:7 in
  Alcotest.(check string) "roundtrip" "payload" (Bytes.to_string back)

let test_vm_access_control () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let other = Kernel.create_domain k ~name:"other" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  (match Vm.write_bytes ~by:other r ~off:0 (Bytes.of_string "x") with
  | exception Vm.Protection_violation _ -> ()
  | _ -> Alcotest.fail "unmapped write allowed");
  Vm.map_into r other;
  Vm.write_bytes ~by:other r ~off:0 (Bytes.of_string "x");
  Vm.unmap_from r other;
  match Vm.peek ~by:other r ~off:0 ~len:1 with
  | exception Vm.Protection_violation _ -> ()
  | _ -> Alcotest.fail "unmapped peek allowed"

let test_vm_audit_counts () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  let audit = Vm.audit_create () in
  Vm.write_bytes ~audit ~label:"A" ~by:d r ~off:0 (Bytes.create 10);
  ignore (Vm.read_bytes ~audit ~label:"F" ~by:d r ~off:0 ~len:10);
  Alcotest.(check int) "two ops" 2 audit.Vm.copy_ops;
  Alcotest.(check int) "twenty bytes" 20 audit.Vm.bytes_copied;
  Alcotest.(check (list string)) "labels" [ "F"; "A" ] audit.Vm.labels;
  Vm.audit_reset audit;
  Alcotest.(check int) "reset" 0 audit.Vm.copy_ops

let test_vm_copy_charges_time () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:512 ~mapped:[ d ] in
  let elapsed = ref 0 in
  ignore
    (Kernel.spawn k d (fun () ->
         let t0 = Engine.now e in
         Vm.write_bytes ~engine:e ~by:d r ~off:0 (Bytes.create 100);
         elapsed := Time.sub (Engine.now e) t0));
  Engine.run e;
  (* per_value + 100 * per_byte = 1667 + 16700 ns *)
  Alcotest.(check int) "copy cost" 18_367 !elapsed

let test_vm_rate_override () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:512 ~mapped:[ d ] in
  let elapsed = ref 0 in
  ignore
    (Kernel.spawn k d (fun () ->
         let t0 = Engine.now e in
         Vm.write_bytes ~engine:e ~rate:(Time.us 1, Time.ns 10) ~by:d r ~off:0
           (Bytes.create 100);
         elapsed := Time.sub (Engine.now e) t0));
  Engine.run e;
  Alcotest.(check int) "override rate" 2_000 !elapsed

let test_region_to_region () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let a = Kernel.alloc_region k ~owner:d ~name:"a" ~bytes:64 ~mapped:[ d ] in
  let b = Kernel.alloc_region k ~owner:d ~name:"b" ~bytes:64 ~mapped:[ d ] in
  Vm.poke ~by:d a ~off:0 (Bytes.of_string "transit");
  Vm.region_to_region ~src:a ~src_off:0 ~dst:b ~dst_off:8 ~len:7 ();
  Alcotest.(check string) "arrived" "transit"
    (Bytes.to_string (Vm.peek ~by:d b ~off:8 ~len:7))

(* --- traps, spawn, termination -------------------------------------------------- *)

let test_trap_charges () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  ignore (Kernel.spawn k d (fun () -> Kernel.trap k));
  Engine.run e;
  let traps =
    List.assoc_opt Category.Trap (Engine.breakdown e) |> Option.value ~default:0
  in
  Alcotest.(check int) "18us" cm.Cost_model.trap traps

let test_spawn_tracked () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let th = Kernel.spawn k d (fun () -> ()) in
  Alcotest.(check bool) "tracked" true (List.memq th d.Pdomain.threads)

let test_terminate_runs_hooks_once () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let hits = ref [] in
  let _ : Kernel.hook_handle =
    Kernel.on_terminate k (fun dom -> hits := ("first", dom.Pdomain.name) :: !hits)
  in
  let _ : Kernel.hook_handle =
    Kernel.on_terminate k (fun dom ->
        hits := ("second", dom.Pdomain.name) :: !hits)
  in
  Kernel.terminate_domain k d;
  Kernel.terminate_domain k d;
  (* idempotent *)
  Alcotest.(check (list (pair string string)))
    "hooks in order, once"
    [ ("second", "d"); ("first", "d") ]
    !hits;
  Alcotest.(check bool) "dead" true (d.Pdomain.state = Pdomain.Dead)

let test_terminate_kills_threads () =
  (* Two processors: the looping victim never yields its CPU, so the
     killer needs one of its own. *)
  let e, k = boot ~processors:2 () in
  let d = Kernel.create_domain k ~name:"d" in
  let th =
    Kernel.spawn k d (fun () ->
        while true do
          Engine.delay e (Time.us 10)
        done)
  in
  ignore
    (Kernel.spawn k (Kernel.create_domain k ~name:"killer") (fun () ->
         Engine.delay e (Time.us 100);
         Kernel.terminate_domain k d));
  Engine.run e;
  Alcotest.(check bool) "looping thread killed" false (Engine.alive th);
  Alcotest.(check (list pass)) "kill is clean" [] (Engine.failures e)

(* --- idle-processor management -------------------------------------------------- *)

(* The running total must track the per-thread counts exactly: random
   claims and releases over several threads, with over-releases
   rejected and leaving both untouched. *)
let test_linkage_total_matches_counts () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let ths = Array.init 4 (fun _ -> Kernel.spawn k d (fun () -> ())) in
  let gauge =
    Lrpc_obs.Metrics.gauge (Engine.metrics e) "kernel.linkages_outstanding"
  in
  let check_sum what =
    let sum =
      Array.fold_left
        (fun acc th -> acc + Kernel.outstanding_linkages k th)
        0 ths
    in
    Alcotest.(check int) what sum (Kernel.total_linkages k);
    Alcotest.(check (float 0.)) (what ^ " gauge") (float_of_int sum)
      (Lrpc_obs.Metrics.Gauge.value gauge)
  in
  let rng = Random.State.make [| 14 |] in
  let rejected = ref 0 in
  for step = 1 to 400 do
    let th = ths.(Random.State.int rng (Array.length ths)) in
    (if Random.State.bool rng then Kernel.linkage_claimed k th
     else if Kernel.outstanding_linkages k th > 0 then
       Kernel.linkage_released k th
     else begin
       incr rejected;
       Alcotest.check_raises "over-release"
         (Invalid_argument "Kernel.linkage_released: none outstanding")
         (fun () -> Kernel.linkage_released k th)
     end);
    check_sum (Printf.sprintf "step %d" step)
  done;
  Alcotest.(check bool) "an over-release was exercised" true (!rejected > 0);
  Array.iter
    (fun th ->
      for _ = 1 to Kernel.outstanding_linkages k th do
        Kernel.linkage_released k th
      done)
    ths;
  check_sum "drained";
  Alcotest.(check int) "back to zero" 0 (Kernel.total_linkages k)

let test_find_idle_in_context () =
  let e, k = boot ~processors:2 () in
  let d = Kernel.create_domain k ~name:"d" in
  Alcotest.(check bool) "none initially" true
    (Kernel.find_idle_processor_in_context k d = None);
  (Engine.cpus e).(1).Engine.context <- Some d.Pdomain.id;
  (match Kernel.find_idle_processor_in_context k d with
  | Some c -> Alcotest.(check int) "cpu1" 1 c.Engine.idx
  | None -> Alcotest.fail "should find cpu1");
  (* a busy processor in the right context does not count *)
  ignore
    (Kernel.spawn k d ~home:1 (fun () -> Engine.delay e (Time.us 10)));
  Alcotest.(check bool) "busy excluded" true
    (Kernel.find_idle_processor_in_context k d = None)

let test_find_idle_takes_lowest () =
  let e, k = boot ~processors:4 () in
  let d = Kernel.create_domain k ~name:"d" in
  let other = Kernel.create_domain k ~name:"other" in
  let cpus = Engine.cpus e in
  cpus.(0).Engine.context <- Some other.Pdomain.id;
  cpus.(2).Engine.context <- Some d.Pdomain.id;
  cpus.(3).Engine.context <- Some d.Pdomain.id;
  match Kernel.find_idle_processor_in_context k d with
  | Some c -> Alcotest.(check int) "first match" 2 c.Engine.idx
  | None -> Alcotest.fail "should find cpu2"

let test_note_miss_prods_idle () =
  let e, k = boot ~processors:2 () in
  Kernel.set_domain_caching k true;
  let d = Kernel.create_domain k ~name:"hot" in
  Alcotest.(check int) "no misses yet" 0 (Kernel.context_misses k d);
  Kernel.note_context_miss k d;
  Alcotest.(check int) "one miss" 1 (Kernel.context_misses k d);
  (* an idle processor was prodded into the hot domain's context *)
  let claimed =
    Array.exists
      (fun c -> c.Engine.context = Some d.Pdomain.id)
      (Engine.cpus e)
  in
  Alcotest.(check bool) "idle cpu claimed" true claimed

let test_note_miss_respects_hotter_domain () =
  let e, k = boot ~processors:1 () in
  Kernel.set_domain_caching k true;
  let hot = Kernel.create_domain k ~name:"hot" in
  let cold = Kernel.create_domain k ~name:"cold" in
  for _ = 1 to 5 do
    Kernel.note_context_miss k hot
  done;
  (* the single idle cpu belongs to hot now *)
  Alcotest.(check (option int)) "hot owns it" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Kernel.note_context_miss k cold;
  (* one miss does not evict a five-miss domain *)
  Alcotest.(check (option int)) "hot keeps it" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  for _ = 1 to 10 do
    Kernel.note_context_miss k cold
  done;
  Alcotest.(check (option int)) "cold out-misses hot" (Some cold.Pdomain.id)
    (Engine.cpus e).(0).Engine.context

let test_miss_counting_and_ewma () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  Alcotest.(check int) "no misses" 0 (Kernel.context_misses k d);
  Alcotest.(check (float 0.0)) "zero ewma" 0.0 (Kernel.context_miss_ewma k d);
  for _ = 1 to 3 do
    Kernel.note_context_miss k d
  done;
  Alcotest.(check int) "raw count" 3 (Kernel.context_misses k d);
  (* with no simulated time between misses there is nothing to decay *)
  Alcotest.(check (float 0.001)) "undecayed ewma" 3.0
    (Kernel.context_miss_ewma k d)

let test_miss_ewma_decays () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  for _ = 1 to 4 do
    Kernel.note_context_miss k d
  done;
  (* advance simulated time by one half-life: the EWMA halves while the
     raw counter stands still *)
  ignore (Kernel.spawn k d (fun () -> Engine.delay e (Time.us 1000)));
  Engine.run e;
  Alcotest.(check int) "raw count unchanged" 4 (Kernel.context_misses k d);
  Alcotest.(check (float 0.01)) "halved" 2.0 (Kernel.context_miss_ewma k d)

let test_miss_prod_needs_margin () =
  let e, k = boot ~processors:1 () in
  Kernel.set_domain_caching k true;
  let hot = Kernel.create_domain k ~name:"hot" in
  let cold = Kernel.create_domain k ~name:"cold" in
  Kernel.note_context_miss k hot;
  Kernel.note_context_miss k hot;
  Alcotest.(check (option int)) "hot claims the idle cpu"
    (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  (* pulling even (EWMA 2 vs 2) is not enough: the eviction needs a 0.5
     margin over the held context *)
  Kernel.note_context_miss k cold;
  Kernel.note_context_miss k cold;
  Alcotest.(check (option int)) "tie does not evict" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Kernel.note_context_miss k cold;
  Alcotest.(check (option int)) "a clear gap does" (Some cold.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Alcotest.(check bool) "prods counted" true (Kernel.prods k >= 2)

let test_idle_consult_retags_hottest () =
  let e, k = boot ~processors:1 () in
  let hot = Kernel.create_domain k ~name:"hot" in
  let cold = Kernel.create_domain k ~name:"cold" in
  (* record the miss history with caching off so no miss-time prod fires;
     only the engine's idle consult may retag below *)
  for _ = 1 to 5 do
    Kernel.note_context_miss k hot
  done;
  Kernel.note_context_miss k cold;
  Kernel.set_domain_caching k true;
  (* a thread of the cold domain runs and finishes: the processor goes
     idle holding cold's context, and the idle consult preloads hot,
     which out-misses it past the 2x hysteresis (5 > 2*1 + 0.5) *)
  ignore (Kernel.spawn k cold (fun () -> ()));
  Engine.run e;
  Alcotest.(check (option int)) "retagged to hot" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Alcotest.(check int) "idle retag counted" 1 (Kernel.idle_retags k)

let test_idle_consult_hysteresis_holds () =
  let e, k = boot ~processors:1 () in
  let hot = Kernel.create_domain k ~name:"hot" in
  let cold = Kernel.create_domain k ~name:"cold" in
  for _ = 1 to 4 do
    Kernel.note_context_miss k hot
  done;
  Kernel.note_context_miss k cold;
  Kernel.note_context_miss k cold;
  Kernel.set_domain_caching k true;
  (* 4 vs 2 is under the 2x + 0.5 bar: a warm context is not perturbed *)
  ignore (Kernel.spawn k cold (fun () -> ()));
  Engine.run e;
  Alcotest.(check (option int)) "cold keeps the processor"
    (Some cold.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Alcotest.(check int) "no idle retag" 0 (Kernel.idle_retags k)

let test_exchange_hit_accounting () =
  let e, k = boot ~processors:2 () in
  Kernel.set_domain_caching k true;
  let d = Kernel.create_domain k ~name:"d" in
  Kernel.note_context_miss k d;
  Alcotest.(check int) "one prod" 1 (Kernel.prods k);
  let prodded =
    Array.to_list (Engine.cpus e)
    |> List.find_opt (fun c -> c.Engine.context = Some d.Pdomain.id)
  in
  let cpu = Option.get prodded in
  Alcotest.(check int) "no hits yet" 0 (Kernel.context_hits k d);
  Kernel.note_context_hit ~cpu k d;
  Alcotest.(check int) "hit counted" 1 (Kernel.context_hits k d);
  let snap = Lrpc_obs.Metrics.snapshot (Engine.metrics e) in
  (match Lrpc_obs.Metrics.get_histogram snap "kernel.prod_to_hit_us" with
  | Some h -> Alcotest.(check int) "prod-to-hit sample" 1 h.Lrpc_obs.Metrics.hs_count
  | None -> Alcotest.fail "prod_to_hit_us histogram missing");
  (* the prod is consumed: a second hit on the same processor is an
     ordinary exchange, not another prod-to-hit sample *)
  Kernel.note_context_hit ~cpu k d;
  Alcotest.(check int) "second hit counted" 2 (Kernel.context_hits k d);
  let snap = Lrpc_obs.Metrics.snapshot (Engine.metrics e) in
  match Lrpc_obs.Metrics.get_histogram snap "kernel.prod_to_hit_us" with
  | Some h -> Alcotest.(check int) "still one sample" 1 h.Lrpc_obs.Metrics.hs_count
  | None -> Alcotest.fail "prod_to_hit_us histogram missing"

let () =
  Alcotest.run "lrpc_kernel"
    [
      ( "domains",
        [
          Alcotest.test_case "ids" `Quick test_domain_ids_unique;
          Alcotest.test_case "machines" `Quick test_domain_machine;
        ] );
      ( "memory",
        [
          Alcotest.test_case "budget" `Quick test_page_budget_enforced;
          Alcotest.test_case "fresh pages" `Quick test_pages_never_reused;
          Alcotest.test_case "page rounding" `Quick test_region_rounds_to_pages;
          Alcotest.test_case "release" `Quick test_region_release;
          Alcotest.test_case "dead domain" `Quick test_dead_domain_cannot_allocate;
        ] );
      ( "vm",
        [
          Alcotest.test_case "write/read" `Quick test_vm_write_read;
          Alcotest.test_case "access control" `Quick test_vm_access_control;
          Alcotest.test_case "audit" `Quick test_vm_audit_counts;
          Alcotest.test_case "copy cost" `Quick test_vm_copy_charges_time;
          Alcotest.test_case "rate override" `Quick test_vm_rate_override;
          Alcotest.test_case "region to region" `Quick test_region_to_region;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "trap" `Quick test_trap_charges;
          Alcotest.test_case "spawn tracked" `Quick test_spawn_tracked;
          Alcotest.test_case "terminate hooks" `Quick test_terminate_runs_hooks_once;
          Alcotest.test_case "terminate kills" `Quick test_terminate_kills_threads;
          Alcotest.test_case "linkage total" `Quick test_linkage_total_matches_counts;
        ] );
      ( "idle processors",
        [
          Alcotest.test_case "find idle" `Quick test_find_idle_in_context;
          Alcotest.test_case "find idle lowest" `Quick test_find_idle_takes_lowest;
          Alcotest.test_case "prodding" `Quick test_note_miss_prods_idle;
          Alcotest.test_case "hotter wins" `Quick test_note_miss_respects_hotter_domain;
          Alcotest.test_case "miss counting" `Quick test_miss_counting_and_ewma;
          Alcotest.test_case "ewma decay" `Quick test_miss_ewma_decays;
          Alcotest.test_case "prod margin" `Quick test_miss_prod_needs_margin;
          Alcotest.test_case "idle retag" `Quick test_idle_consult_retags_hottest;
          Alcotest.test_case "idle hysteresis" `Quick test_idle_consult_hysteresis_holds;
          Alcotest.test_case "exchange hits" `Quick test_exchange_hit_accounting;
        ] );
    ]
