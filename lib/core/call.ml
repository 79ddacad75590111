open Rt
module Category = Lrpc_sim.Category

let calls_completed rt = Metrics.Counter.value rt.c_calls_completed

(* Ablation A4: the counterfactual global kernel lock. LRPC proper runs
   this section lock-free. *)
let klocked rt f =
  match rt.global_kernel_lock with
  | Some lk -> Spinlock.with_lock lk ~hold:Lrpc_sim.Time.zero f
  | None -> f ()

(* Direct context switch into [target], or a processor exchange with an
   idle processor already holding the target context (paper §3.4). *)
let transfer_to rt ~target =
  let e = engine rt in
  if Kernel.domain_caching_enabled rt.kernel then
    match Kernel.find_idle_processor_in_context rt.kernel target with
    | Some cpu ->
        Kernel.note_context_hit ~cpu rt.kernel target;
        Engine.exchange_processors e ~target:cpu;
        (* The context is already loaded: retagging is free. *)
        Engine.switch_self_context e ~domain:target.Pdomain.id
    | None ->
        Kernel.note_context_miss rt.kernel target;
        Engine.switch_self_context e ~domain:target.Pdomain.id
  else Engine.switch_self_context e ~domain:target.Pdomain.id

let slot_type (s : Layout.slot) ~proc =
  match s.Layout.sparam with
  | Some p -> p.I.ty
  | None -> (
      match proc.I.result with
      | Some ty -> ty
      | None -> assert false)

(* Copy A: the only call-time copy LRPC makes — client stack to A-stack. *)
let marshal_inputs rt ?audit ~client ~region plan =
  let e = engine rt in
  List.iter
    (fun (s : Layout.slot) ->
      match s.Layout.svalue with
      | Some v ->
          let encoded =
            V.encode
              (match s.Layout.sparam with
              | Some p -> p.I.ty
              | None -> assert false)
              v
          in
          Vm.write_bytes ~engine:e ?audit ~label:"A" ~by:client region
            ~off:s.Layout.offset encoded
      | None -> ())
    plan.Layout.slots

(* Copy E: defensive copies of interpreted arguments, only when the
   export demands immutability (paper §3.5). *)
let defensive_copies rt ?audit ~server ~region plan =
  let e = engine rt in
  List.iter
    (fun (s : Layout.slot) ->
      ignore
        (Vm.read_bytes ~engine:e ?audit ~label:"E" ~by:server region
           ~off:s.Layout.offset ~len:s.Layout.size))
    (Layout.immutable_copy_slots plan)

(* The server stub places outputs straight into the A-stack slots; this
   is the procedure storing its results, not a copy (Table 3 counts only
   A and F for LRPC). Conformance is folded into the encode. *)
let store_outputs ~server ~region ~proc plan outputs =
  let out_slots = Layout.output_slots plan in
  if List.length out_slots <> List.length outputs then
    invalid_arg
      (Printf.sprintf "%s returned %d outputs, expected %d" proc.I.proc_name
         (List.length outputs) (List.length out_slots));
  List.iter2
    (fun (s : Layout.slot) v ->
      let encoded = V.encode (slot_type s ~proc) v in
      if Bytes.length encoded > s.Layout.size then
        raise (V.Conformance_error "output exceeds its reserved slot");
      Vm.poke ~by:server region ~off:s.Layout.offset encoded)
    out_slots outputs

(* Copy F: the client stub copies returned values from the A-stack to
   their final destination. *)
let read_outputs rt ?audit ~client ~region ~proc plan =
  let e = engine rt in
  List.map
    (fun (s : Layout.slot) ->
      let v, consumed =
        V.decode (slot_type s ~proc) (Vm.data region) ~off:s.Layout.offset
      in
      ignore
        (Vm.read_bytes ~engine:e ?audit ~label:"F" ~by:client region
           ~off:s.Layout.offset ~len:consumed);
      v)
    (Layout.output_slots plan)

(* ---- landing ----------------------------------------------------------- *)

let reason_of_exn = function
  | Call_failed m | Call_aborted m | Deadline_exceeded m | Bad_binding m -> m
  | Not_exported m -> "not exported: " ^ m
  | Overloaded { ov_reason; _ } -> ov_reason
  | exn -> Printexc.to_string exn

(* Record the call's outcome on the handle and wake everyone blocked in
   an await. Wake-ups may be spurious from the waiter's point of view
   (await_any registers with several handles); the wait loops re-check.
   Guarded: a call aborted at its deadline has already landed when its
   vehicle finally comes home — the late outcome is dropped, and the
   in-flight gauge is decremented exactly once. *)
let land_ rt h outcome =
  match h.ch_state with
  | Landed _ | Consumed -> ()
  | Issued | In_flight ->
      let e = engine rt in
      (match h.ch_deadline with
      | Some tmr ->
          Engine.cancel_timer e tmr;
          h.ch_deadline <- None
      | None -> ());
      h.ch_state <- Landed outcome;
      let b = h.ch_binding in
      b.b_inflight <- b.b_inflight - 1;
      (* Observed service time feeds deadline-aware admission; tracked
         only while a policy is installed so the unlimited fast path
         stays bit-identical in work done per call. *)
      (match (rt.admission, outcome) with
      | Some _, Ok () ->
          let obs = Time.to_us (Time.sub (Engine.now e) h.ch_issued_at) in
          b.b_srv_ewma_us <-
            (if b.b_srv_ewma_us = 0.0 then obs
             else (0.9 *. b.b_srv_ewma_us) +. (0.1 *. obs))
      | _ -> ());
      note_call_landed rt;
      if Engine.tracing e then
        Engine.emit e
          (Event.Call_completed
             {
               binding = h.ch_binding.bid;
               proc = h.ch_proc;
               handle = h.ch_id;
               ok = (match outcome with Ok () -> true | Error _ -> false);
             });
      (match outcome with
      | Ok () -> ()
      | Error exn ->
          Metrics.Counter.incr rt.c_calls_failed;
          if Engine.tracing e then
            Engine.emit e
              (Event.Call_failed
                 {
                   binding = h.ch_binding.bid;
                   proc = h.ch_proc;
                   handle = h.ch_id;
                   reason = reason_of_exn exn;
                 }));
      let waiters = h.ch_waiters in
      h.ch_waiters <- [];
      List.iter (fun th -> if Engine.alive th then Engine.wake e th) waiters

(* ---- the completion half ------------------------------------------------ *)

(* Everything from the kernel trap to the return transfer, executed on
   the thread that actually crosses into the server: the issuing thread
   itself for synchronous calls (so Tables 4/5 are reproduced by the
   very same delay sequence as before the handle split), or a carrier
   thread for pipelined ones. May raise [Engine.Thread_killed] (the
   §5.3 abandoned-call paths); any other failure is returned as the
   call's outcome. *)
let complete_local rt h lc =
  let e = engine rt in
  let cm = cost_model rt in
  let th = Engine.self e in
  let b = h.ch_binding in
  let client = b.b_client and server = b.b_server in
  let audit = lc.lc_audit in
  let pb = lc.lc_pb in
  let astack = lc.lc_astack in
  let plan = lc.lc_plan in
  let data_region = lc.lc_region in
  let release_oob () =
    if lc.lc_oob then Kernel.release_region rt.kernel ~owner:client data_region
  in
  let release_all () =
    release_oob ();
    if not lc.lc_released then begin
      lc.lc_released <- true;
      Astack.checkin rt pb astack
    end
  in
  (* Argument bytes consumed on a processor other than the one that
     wrote them drag cache lines across the bus; charged where the
     consumption happens. This is why domain caching helps large
     arguments less (Table 4's shrinking MP column). *)
  let coherency bytes =
    if bytes > 0 then
      Engine.delay ~category:Category.Copy e
        (Lrpc_sim.Time.scale cm.Lrpc_sim.Cost_model.coherency_per_byte
           (float_of_int bytes))
  in
  let linkage = astack.a_linkage in
  let lstack = linkstack_of rt th in
  (* Put the books right after an asynchronous failure (kill, unwind,
     crash landing at any delay point of the completion half): if our
     linkage claim is still on this thread's linkstack, undo it, then
     reclaim the A-stack and any out-of-band segment. Idempotent, and a
     no-op for claims already released by the normal return path. *)
  let crash_cleanup () =
    if List.exists (fun l -> l == linkage) !lstack then begin
      lstack := List.filter (fun l -> not (l == linkage)) !lstack;
      Kernel.linkage_released rt.kernel th;
      linkage.l_in_use <- false;
      linkage.l_abandoned <- false;
      linkage.l_caller <- None;
      linkage.l_return_domain <- None
    end;
    release_all ()
  in
  let run () =
    (* Trap to the kernel; validation and linkage work. *)
    Kernel.trap rt.kernel;
    klocked rt (fun () ->
        Engine.delay ~category:Category.Kernel_transfer e
          cm.Lrpc_sim.Cost_model.kernel_call;
        (try
           (* The caller's identity is the domain the trapping thread
              actually runs in, not whatever the Binding Object claims —
              a carrier dispatched at issue time lives in the client
              domain, so it passes the same check the issuer would. *)
           let caller =
             match Kernel.find_domain rt.kernel (Engine.thread_domain th) with
             | Some d -> d
             | None -> raise (Bad_binding "caller has no domain")
           in
           ignore (Binding.verify rt b ~caller ~proc:h.ch_proc);
           Astack.validate rt pb astack
         with exn ->
           release_all ();
           raise exn);
        linkage.l_in_use <- true;
        linkage.l_valid <- true;
        linkage.l_abandoned <- false;
        linkage.l_caller <- Some th;
        linkage.l_return_domain <- Some client;
        lstack := linkage :: !lstack;
        Kernel.linkage_claimed rt.kernel th;
        let estack = Estack.associate rt ~server astack in
        (* Domain transfer: the executing thread crosses into the
           server. *)
        transfer_to rt ~target:server;
        Footprint.call_side rt b astack estack ~data_region);
    (* The deadline fired while we were on our way in: the handle has
       already landed, so serve out the call as an abandoned capture —
       the kernel destroys this thread on return and the A-stack comes
       home then (§5.3). *)
    (match h.ch_abort with
    | Some _ ->
        linkage.l_abandoned <- true;
        linkage.l_valid <- false
    | None -> ());
    let server_cpu = (Engine.current_cpu e).Engine.idx in
    if server_cpu <> lc.lc_marshal_cpu then coherency lc.lc_bytes_in;
    (* Upcall into the server's entry stub. *)
    Engine.delay ~category:Category.Stub_server e
      cm.Lrpc_sim.Cost_model.server_stub_call;
    lc.lc_t_transfer <- Engine.now e;
    if b.b_export.ex_defensive then
      defensive_copies rt ?audit ~server ~region:data_region plan;
    let ctx =
      {
        sc_rt = rt;
        sc_binding = b;
        sc_proc = pb.pb_spec;
        sc_plan = plan;
        sc_region = data_region;
        sc_thread = th;
      }
    in
    let outcome =
      try
        (match rt.faults with
        | Some f -> (
            match f.f_server_exn ~proc:h.ch_proc with
            | Some exn -> raise exn
            | None -> ())
        | None -> ());
        let outputs = pb.pb_impl ctx in
        store_outputs ~server ~region:data_region ~proc:pb.pb_spec plan outputs;
        Ok ()
      with
      | Engine.Thread_killed as exn -> raise exn
      | Unwind_termination -> Error (Call_failed "server domain terminated")
      | exn -> Error exn
    in
    (* Return transfer: server stub traps; the kernel needs only the
       linkage record — no re-validation. *)
    Engine.delay ~category:Category.Stub_server e
      cm.Lrpc_sim.Cost_model.server_stub_return;
    lc.lc_t_server <- Engine.now e;
    Kernel.trap rt.kernel;
    let was_valid, was_abandoned =
      klocked rt (fun () ->
          Engine.delay ~category:Category.Kernel_transfer e
            cm.Lrpc_sim.Cost_model.kernel_return;
          (match !lstack with
          | l :: rest when l == linkage -> lstack := rest
          | ls ->
              (* Completion halves run start-to-finish on their executing
                 thread, so the LIFO head case is the rule (nested calls
                 from a server procedure still nest); removal by physical
                 identity keeps the books right regardless. *)
              lstack := List.filter (fun l -> not (l == linkage)) ls);
          Kernel.linkage_released rt.kernel th;
          let was_valid = linkage.l_valid in
          let was_abandoned = linkage.l_abandoned in
          linkage.l_in_use <- false;
          linkage.l_caller <- None;
          linkage.l_return_domain <- None;
          if not was_abandoned && Pdomain.active client then begin
            (* Cross back into the domain of the first valid linkage —
               the client, unless it terminated while we were away. *)
            transfer_to rt ~target:client;
            Footprint.return_side rt b;
            if (Engine.current_cpu e).Engine.idx <> server_cpu then
              coherency lc.lc_bytes_out
          end;
          (was_valid, was_abandoned))
    in
    if was_abandoned then begin
      (* §5.3: the client released this captured call (or its deadline
         fired); the thread is destroyed in the kernel upon release, and
         the A-stack it was still holding goes home now. *)
      release_all ();
      raise Engine.Thread_killed
    end;
    if not (Pdomain.active client) then begin
      release_all ();
      raise Engine.Thread_killed
    end;
    match outcome with
    | Ok () when not was_valid -> Error (Call_failed "linkage invalidated")
    | o -> o
  in
  try run () with
  | Unwind_termination ->
      (* The server domain terminated under us outside the procedure
         body (the in-body case surfaces through the normal return
         path). Unwind the linkage claim, reclaim the A-stack, and come
         home so the restarted caller continues in its own domain. *)
      crash_cleanup ();
      if Pdomain.active client then begin
        transfer_to rt ~target:client;
        Footprint.return_side rt b
      end;
      Error (Call_failed "server domain terminated")
  | exn ->
      (* Thread_killed and everything else: reclaim, then let
         run_completion land or re-raise it. *)
      crash_cleanup ();
      raise exn

(* §5.1: the conventional network path, behind the remote bit. The
   window slot claimed at issue is returned when the reply lands, waking
   the longest-blocked issuer. *)
let complete_remote _rt h rc =
  let b = h.ch_binding in
  let r =
    match b.b_remote with Some r -> r | None -> assert false
  in
  let release_slot () =
    if rc.rc_slot_held then begin
      rc.rc_slot_held <- false;
      r.r_in_flight <- r.r_in_flight - 1;
      ignore (Waitq.signal r.r_wait)
    end
  in
  Fun.protect ~finally:release_slot (fun () ->
      try
        rc.rc_results <- r.r_transport ~proc:h.ch_proc rc.rc_args;
        Ok ()
      with
      | Engine.Thread_killed as exn -> raise exn
      | exn -> Error exn)

let complete_body rt h =
  match h.ch_kind with
  | Ck_local lc -> complete_local rt h lc
  | Ck_remote rc -> complete_remote rt h rc

(* Send home whatever the issue half claimed — the A-stack (and any
   out-of-band region) of a local call, the window slot of a remote one
   — without running the completion half. Idempotent against the
   completion half's own release paths. *)
let reclaim_issue rt h =
  match h.ch_kind with
  | Ck_local lc ->
      if not lc.lc_released then begin
        if lc.lc_oob then
          Kernel.release_region rt.kernel ~owner:h.ch_binding.b_client
            lc.lc_region;
        lc.lc_released <- true;
        Astack.checkin rt lc.lc_pb lc.lc_astack
      end
  | Ck_remote rc ->
      if rc.rc_slot_held then begin
        let r =
          match h.ch_binding.b_remote with Some r -> r | None -> assert false
        in
        rc.rc_slot_held <- false;
        r.r_in_flight <- r.r_in_flight - 1;
        ignore (Waitq.signal r.r_wait)
      end

(* Run the completion half on the current thread and land the handle.
   Never lets an exception other than [Thread_killed] escape: failures
   land as the call's outcome and are re-raised at readback time, so a
   dead carrier cannot leave awaiting threads hanging. *)
let run_completion rt h =
  match h.ch_state with
  | Landed _ | Consumed ->
      (* Aborted between dispatch and the carrier's first instruction:
         the call never enters the kernel, the vehicle just returns the
         claimed resources (the awaiter was detached by the abort). *)
      reclaim_issue rt h
  | Issued | In_flight -> (
      (match h.ch_state with
      | Issued ->
          (* Executing: an inline vehicle in its completion half is
             indistinguishable from a carrier for abort purposes. *)
          h.ch_state <- In_flight
      | _ -> ());
      match complete_body rt h with
      | outcome ->
          land_ rt h outcome;
          (* An abort raced us to the landing (e.g. the deadline fired
             during the return transfer, after the linkage was already
             released): the awaiter was detached and will not release,
             so the claimed resources come home with the vehicle. *)
          (match h.ch_kind with
          | Ck_local lc when lc.lc_detached -> reclaim_issue rt h
          | _ -> ())
      | exception (Engine.Thread_killed as k) ->
          (* The executing thread dies (abandoned call, terminated
             client, deadline abort); the completion half has reclaimed
             the A-stack on every kill path — belt and braces here for
             vehicles killed before the claim. *)
          reclaim_issue rt h;
          let outcome =
            match h.ch_abort with
            | Some exn -> exn
            | None -> Call_aborted (h.ch_proc ^ ": call released while captured")
          in
          land_ rt h (Error outcome);
          raise k
      | exception exn -> land_ rt h (Error exn))

(* ---- readback (the awaiting thread's half) ------------------------------ *)

let readout rt h outcome =
  let e = engine rt in
  let cm = cost_model rt in
  h.ch_state <- Consumed;
  match h.ch_kind with
  | Ck_remote rc -> (
      match outcome with
      | Ok () ->
          let st = h.ch_binding.b_stats in
          Metrics.Counter.incr st.cs_calls;
          Metrics.Histo.observe_us st.cs_total
            (Time.sub (Engine.now e) h.ch_issued_at);
          rc.rc_results
      | Error exn -> raise exn)
  | Ck_local lc -> (
      let b = h.ch_binding in
      let client = b.b_client in
      let release_all () =
        if lc.lc_oob then
          Kernel.release_region rt.kernel ~owner:client lc.lc_region;
        if not lc.lc_released then begin
          lc.lc_released <- true;
          Astack.checkin rt lc.lc_pb lc.lc_astack
        end
      in
      match outcome with
      | Ok () ->
          (* Client stub, return side: copy F off the A-stack, then the
             A-stack goes home. *)
          Engine.delay ~category:Category.Stub_client e
            cm.Lrpc_sim.Cost_model.client_stub_return;
          let outputs =
            read_outputs rt ?audit:lc.lc_audit ~client ~region:lc.lc_region
              ~proc:lc.lc_pb.pb_spec lc.lc_plan
          in
          release_all ();
          Metrics.Counter.incr rt.c_calls_completed;
          let st = b.b_stats in
          let t0 = h.ch_issued_at in
          let t_end = Engine.now e in
          Metrics.Counter.incr st.cs_calls;
          Metrics.Histo.observe_us st.cs_total (Time.sub t_end t0);
          Metrics.Histo.observe_us st.cs_bind (Time.sub lc.lc_t_bind t0);
          Metrics.Histo.observe_us st.cs_marshal
            (Time.sub lc.lc_t_marshal lc.lc_t_bind);
          Metrics.Histo.observe_us st.cs_transfer
            (Time.sub lc.lc_t_transfer lc.lc_t_marshal);
          Metrics.Histo.observe_us st.cs_server
            (Time.sub lc.lc_t_server lc.lc_t_transfer);
          Metrics.Histo.observe_us st.cs_return (Time.sub t_end lc.lc_t_server);
          outputs
      | Error exn ->
          (* Resources already released mean the call failed before the
             transfer (validation, marshalling) or died captured — the
             client stub's return side never runs. A detached call's
             A-stack is still in the hands of its captured vehicle and
             comes home when that thread finally returns (§5.3), so the
             awaiter must not release either. Otherwise the error came
             home through the normal return path. *)
          if (not lc.lc_released) && not lc.lc_detached then begin
            Engine.delay ~category:Category.Stub_client e
              cm.Lrpc_sim.Cost_model.client_stub_return;
            release_all ()
          end;
          raise exn)

(* ---- the issue half ----------------------------------------------------- *)

(* Client stub, call side: plan slots, claim an A-stack (blocking FIFO
   under the `Wait exhaustion policy — the pool is the pipelining
   window), marshal the arguments. Runs on the issuing thread; errors
   here raise synchronously, before a handle exists. *)
let issue_local ?audit ?admit rt b ~proc args =
  let e = engine rt in
  let cm = cost_model rt in
  let client = b.b_client and server = b.b_server in
  let caller =
    match Kernel.find_domain rt.kernel (Engine.thread_domain (Engine.self e)) with
    | Some d -> d
    | None -> raise (Bad_binding "caller has no domain")
  in
  let pb =
    match List.assoc_opt proc b.b_procs with
    | Some pb -> pb
    | None -> raise (Bad_binding ("no such procedure: " ^ proc))
  in
  Engine.delay ~category:Category.Stub_client e
    cm.Lrpc_sim.Cost_model.client_stub_call;
  let plan = Layout.plan pb.pb_layout ~args in
  let astack = Astack.checkout ?admit rt pb ~client ~server in
  let oob = not (Layout.fits pb.pb_layout plan) in
  let data_region =
    if oob then begin
      (* §5.2: arguments too large for the A-stack travel in an
         out-of-band segment — complicated and relatively expensive,
         but infrequent. *)
      Engine.delay ~category:Category.Kernel_transfer e rt.config.oob_overhead;
      Kernel.alloc_region rt.kernel ~owner:client
        ~name:(Printf.sprintf "oob-%s-%d" proc astack.a_id)
        ~bytes:plan.Layout.total_bytes
        ~mapped:[ client; server ]
    end
    else astack.a_region
  in
  let t_bind = Engine.now e in
  (try marshal_inputs rt ?audit ~client:caller ~region:data_region plan
   with exn ->
     if oob then Kernel.release_region rt.kernel ~owner:client data_region;
     Astack.checkin rt pb astack;
     raise exn);
  let t_marshal = Engine.now e in
  let slot_bytes slots =
    List.fold_left (fun acc (s : Layout.slot) -> acc + s.Layout.size) 0 slots
  in
  Ck_local
    {
      lc_caller = caller;
      lc_pb = pb;
      lc_plan = plan;
      lc_astack = astack;
      lc_region = data_region;
      lc_oob = oob;
      lc_audit = audit;
      lc_marshal_cpu = (Engine.current_cpu e).Engine.idx;
      lc_bytes_in = slot_bytes (Layout.input_slots plan);
      lc_bytes_out = slot_bytes (Layout.output_slots plan);
      lc_released = false;
      lc_detached = false;
      lc_t_bind = t_bind;
      lc_t_marshal = t_marshal;
      lc_t_transfer = t_marshal;
      lc_t_server = t_marshal;
    }

(* Abort an unlanded call — the deadline/timeout path. §5.3 discipline:
   a vehicle inside the server cannot be forced home, so its linkage is
   marked abandoned (the kernel destroys the thread and reclaims the
   A-stack when it finally returns), while the handle lands {e now} so
   the awaiter resumes with [Deadline_exceeded]. A vehicle still on its
   way in picks the abort up at linkage-claim time. Inline vehicles
   (the awaiting thread itself) cannot abort themselves — a no-op, as is
   aborting a call that already landed. Engine-level safe: timers call
   this directly. *)
let abort rt h ~reason =
  let exn = Deadline_exceeded reason in
  match h.ch_state with
  | Landed _ | Consumed -> ()
  | Issued ->
      (* Not yet executing: fail the handle; the awaiter's readback
         releases the A-stack. *)
      land_ rt h (Error exn)
  | In_flight -> (
      match h.ch_carrier with
      | None ->
          (* The awaiting thread is the vehicle, mid-completion: it
             cannot abandon itself; let the call finish. *)
          ()
      | Some c ->
          h.ch_abort <- Some exn;
          (match h.ch_kind with
          | Ck_remote _ ->
              (* The carrier serves out the wire exchange (the server may
                 or may not have executed — at-most-once, not exactly-
                 once); its late outcome is dropped by the landing
                 guard. *)
              ()
          | Ck_local lc ->
              lc.lc_detached <- true;
              let linkage = lc.lc_astack.a_linkage in
              let held_by_carrier =
                linkage.l_in_use
                && (match linkage.l_caller with
                   | Some th -> th == c
                   | None -> false)
              in
              if held_by_carrier then begin
                (* Captured inside the server: abandoned, destroyed on
                   return (§5.3). *)
                linkage.l_abandoned <- true;
                linkage.l_valid <- false
              end);
          land_ rt h (Error exn))

(* Refuse a call at the door. Raised before any resource is claimed, so
   the only cost of a rejected call is the client-stub entry. *)
let overloaded b ~reason =
  let hint = if b.b_srv_ewma_us > 0.0 then b.b_srv_ewma_us else 1000.0 in
  raise (Overloaded { ov_reason = reason; ov_backoff_us = hint })

(* Admission control (installed via [rt.admission], off by default): the
   concurrency bound rejects when the binding already has its limit of
   calls in flight, and deadline-aware admission rejects calls whose
   whole deadline budget is smaller than the observed (EWMA) service
   time — they would only be aborted after consuming a server thread. *)
let admission_gate rt b ?deadline () =
  match rt.admission with
  | None -> ()
  | Some adm ->
      (match adm.adm_max_inflight with
      | Some m when b.b_inflight >= m ->
          overloaded b
            ~reason:
              (Printf.sprintf "binding %d at concurrency limit (%d in flight)"
                 b.bid m)
      | _ -> ());
      (match deadline with
      | Some d when adm.adm_deadline_aware ->
          let need = b.b_srv_ewma_us in
          if need > 0.0 && Time.to_us d < need then
            overloaded b
              ~reason:
                (Printf.sprintf
                   "deadline budget %.0f us below observed service time %.0f us"
                   (Time.to_us d) need)
      | _ -> ());
      Metrics.Counter.incr rt.c_calls_admitted

let issue_guarded ?audit ?deadline ~vehicle rt b ~proc args =
  let e = engine rt in
  let cm = cost_model rt in
  let t0 = Engine.now e in
  (* The admission test is the stub's first instruction, like the §5.1
     remote bit: a couple of loads and compares before the formal
     procedure entry, so a refused call is turned away without ever
     competing for a processor — under overload the rejected sessions
     cost the system nothing, which is what keeps rejection cheaper
     than the work it sheds. *)
  admission_gate rt b ?deadline ();
  (* Admitted: the concurrency the gate bounds is admitted-and-not-yet-
     landed, counted from the gate itself — a call holds its slot
     through the stub entry, the kernel trap, the A-stack FIFO and its
     whole in-service time, so under CPU overload the gate sees every
     runnable thread still inside a call on this binding, not just the
     ones that made it past checkout. Any refusal below (a queue shed,
     a bad binding, a killed thread) returns the slot; a landed call
     returns it in [land_]. *)
  b.b_inflight <- b.b_inflight + 1;
  try
  (* The formal procedure call into the client stub. *)
  Engine.delay ~category:Category.Proc_call e cm.Lrpc_sim.Cost_model.proc_call;
  (* Queued waits observe the binding's queue-delay histogram always;
     the deadline propagates into the A-stack FIFO wait (so a waiter
     whose deadline passes is shed from the queue) only under an
     installed admission policy — without one no timer is armed and the
     delay sequence is untouched. *)
  let admit =
    {
      Astack.ad_binding = b;
      ad_deadline_at =
        (match (rt.admission, deadline) with
        | Some _, Some d -> Some (Time.add t0 d)
        | _ -> None);
    }
  in
  let kind =
    match b.b_remote with
    | Some r ->
        (* §5.1: the remote bit, tested by the stub's first instruction,
           branches to the conventional network RPC path — here gated by
           the binding's in-flight window, the wire analogue of the
           A-stack pool bound. *)
        while r.r_in_flight >= r.r_window do
          Waitq.wait r.r_wait
        done;
        r.r_in_flight <- r.r_in_flight + 1;
        Ck_remote { rc_args = args; rc_results = []; rc_slot_held = true }
    | None -> issue_local ?audit ~admit rt b ~proc args
  in
  let h =
    {
      ch_id = rt.next_handle;
      ch_binding = b;
      ch_proc = proc;
      ch_issuer = Engine.self e;
      ch_issued_at = t0;
      ch_kind = kind;
      ch_carrier = None;
      ch_state = Issued;
      ch_waiters = [];
      ch_abort = None;
      ch_deadline = None;
    }
  in
  rt.next_handle <- rt.next_handle + 1;
  note_call_issued rt;
  if Engine.tracing e then
    Engine.emit e (Event.Call_issued { binding = b.bid; proc; handle = h.ch_id });
  (match vehicle with
  | `Inline -> ()
  | `Carrier ->
      (* Pipelined: a carrier thread in the client domain crosses into
         the server on the issuer's behalf; the issuer keeps running. *)
      h.ch_state <- In_flight;
      let carrier =
        Kernel.spawn rt.kernel b.b_client
          ~name:("carrier-" ^ proc ^ "#" ^ string_of_int h.ch_id)
          (fun () ->
            (* The carrier lives for this one call: its linkstack entry
               goes with it, or every async call would stay reachable. *)
            let self = Engine.self e in
            Fun.protect
              ~finally:(fun () -> drop_linkstack rt self)
              (fun () -> run_completion rt h))
      in
      h.ch_carrier <- Some carrier);
  (match deadline with
  | Some d ->
      h.ch_deadline <-
        Some
          (Engine.at e (Time.add t0 d) (fun () ->
               abort rt h
                 ~reason:
                   (Printf.sprintf "%s: deadline (%.0f us) exceeded" proc
                      (Time.to_us d))))
  | None -> ());
  h
  with exn ->
    b.b_inflight <- b.b_inflight - 1;
    raise exn

(* Every synchronous refusal of the issue half — an admission rejection,
   a queue-depth or sojourn shed, a deadline that expired while queued,
   a bad binding — is a call that never got a handle. Count it, so that
   issued + rejected accounts for every attempt, and trace it as its own
   event (there is no handle for a [Call_failed]). *)
let issue ?audit ?deadline ~vehicle rt b ~proc args =
  try issue_guarded ?audit ?deadline ~vehicle rt b ~proc args with
  | (Engine.Thread_killed | Unwind_termination) as exn -> raise exn
  | exn ->
      Metrics.Counter.incr rt.c_calls_rejected;
      let e = engine rt in
      if Engine.tracing e then
        Engine.emit e
          (Event.Call_rejected
             { binding = b.bid; proc; reason = reason_of_exn exn });
      raise exn

(* ---- await -------------------------------------------------------------- *)

let rec await_loop rt h =
  let e = engine rt in
  match h.ch_state with
  | Consumed ->
      raise
        (Already_awaited (Printf.sprintf "%s (handle #%d)" h.ch_proc h.ch_id))
  | Issued ->
      (* Inline handle: the awaiting thread itself is the vehicle — this
         is the synchronous call path, bit-identical in cost to the
         pre-handle implementation. *)
      run_completion rt h;
      await_loop rt h
  | Landed outcome -> readout rt h outcome
  | In_flight ->
      h.ch_waiters <- Engine.self e :: h.ch_waiters;
      Engine.block e;
      await_loop rt h

let await ?timeout rt h =
  match timeout with
  | None -> await_loop rt h
  | Some d ->
      let e = engine rt in
      let tmr =
        Engine.at e
          (Time.add (Engine.now e) d)
          (fun () ->
            abort rt h
              ~reason:
                (Printf.sprintf "%s: await timeout (%.0f us) exceeded"
                   h.ch_proc (Time.to_us d)))
      in
      Fun.protect
        ~finally:(fun () -> Engine.cancel_timer e tmr)
        (fun () -> await_loop rt h)

let await_any rt hs =
  if hs = [] then invalid_arg "Call.await_any: no handles";
  let e = engine rt in
  let landed h = match h.ch_state with Landed _ -> true | _ -> false in
  let issued h = match h.ch_state with Issued -> true | _ -> false in
  let consumed h = match h.ch_state with Consumed -> true | _ -> false in
  let rec loop () =
    match List.find_opt landed hs with
    | Some h -> (
        match h.ch_state with
        | Landed outcome -> (h, readout rt h outcome)
        | _ -> assert false)
    | None -> (
        match List.find_opt issued hs with
        | Some h ->
            (* An inline handle among the candidates: complete it
               ourselves rather than sleeping forever. *)
            run_completion rt h;
            loop ()
        | None ->
            if List.for_all consumed hs then
              raise (Already_awaited "await_any: every handle consumed");
            let th = Engine.self e in
            List.iter
              (fun h ->
                match h.ch_state with
                | In_flight -> h.ch_waiters <- th :: h.ch_waiters
                | Issued | Landed _ | Consumed -> ())
              hs;
            Engine.block e;
            loop ())
  in
  loop ()

let await_all ?timeout rt hs = List.map (fun h -> await ?timeout rt h) hs

(* ---- entry points ------------------------------------------------------- *)

let call ?audit ?deadline rt b ~proc args =
  match deadline with
  | None -> await rt (issue ?audit ~vehicle:`Inline rt b ~proc args)
  | Some _ ->
      (* A synchronous call with a deadline needs an abortable vehicle:
         the §5.3 abandon protocol cannot release the awaiting thread
         from itself, so the completion half rides a carrier. This is
         the one case where a deadline changes the call's cost. *)
      await rt (issue ?audit ?deadline ~vehicle:`Carrier rt b ~proc args)

let call_async ?audit ?deadline rt b ~proc args =
  issue ?audit ?deadline ~vehicle:`Carrier rt b ~proc args
