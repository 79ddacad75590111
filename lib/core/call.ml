open Rt
module Category = Lrpc_sim.Category

let calls_completed rt = Metrics.Counter.value rt.c_calls_completed

(* Ablation A4: the counterfactual global kernel lock, held across the
   kernel's call- and return-side transfer sections. LRPC proper runs
   them lock-free. Every section releases it on all exception paths. *)
let enter_kernel rt =
  match rt.global_kernel_lock with
  | Some lk -> Spinlock.acquire lk
  | None -> ()

let leave_kernel rt =
  match rt.global_kernel_lock with
  | Some lk -> Spinlock.release lk
  | None -> ()

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

(* The slot walks below recurse over [plan.slots] directly, testing
   membership as they go, so a call builds no filtered slot lists and no
   closures. *)

(* Copy A: the only call-time copy LRPC makes — client stack to A-stack. *)
let rec marshal_inputs e ?audit ~client ~region = function
  | [] -> ()
  | (s : Layout.slot) :: rest ->
      (match s.Layout.svalue with
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
      | None -> ());
      marshal_inputs e ?audit ~client ~region rest

(* Copy E: defensive copies of interpreted arguments, only when the
   export demands immutability (paper §3.5). *)
let rec defensive_copies e ?audit ~server ~region = function
  | [] -> ()
  | (s : Layout.slot) :: rest ->
      if Layout.is_immutable_copy s then
        ignore
          (Vm.read_bytes ~engine:e ?audit ~label:"E" ~by:server region
             ~off:s.Layout.offset ~len:s.Layout.size);
      defensive_copies e ?audit ~server ~region rest

let rec count_outputs n = function
  | [] -> n
  | s :: rest -> count_outputs (if Layout.is_output s then n + 1 else n) rest

let rec store_slots ~server ~region ~proc slots outputs =
  match (slots, outputs) with
  | [], _ | _, [] -> ()
  | (s : Layout.slot) :: rest, v :: vs ->
      if Layout.is_output s then begin
        let encoded = V.encode (slot_type s ~proc) v in
        if Bytes.length encoded > s.Layout.size then
          raise (V.Conformance_error "output exceeds its reserved slot");
        Vm.poke ~by:server region ~off:s.Layout.offset encoded;
        store_slots ~server ~region ~proc rest vs
      end
      else store_slots ~server ~region ~proc rest outputs

(* The server stub places outputs straight into the A-stack slots; this
   is the procedure storing its results, not a copy (Table 3 counts only
   A and F for LRPC). Conformance is folded into the encode. *)
let store_outputs ~server ~region ~proc plan outputs =
  let slots = plan.Layout.slots in
  let expected = count_outputs 0 slots in
  if expected <> List.length outputs then
    invalid_arg
      (Printf.sprintf "%s returned %d outputs, expected %d" proc.I.proc_name
         (List.length outputs) expected);
  store_slots ~server ~region ~proc slots outputs

(* Copy F: the client stub copies returned values from the A-stack to
   their final destination, in slot order. *)
let rec read_outputs e ?audit ~client ~region ~proc = function
  | [] -> []
  | (s : Layout.slot) :: rest ->
      if Layout.is_output s then begin
        let v, consumed =
          V.decode (slot_type s ~proc) (Vm.data region) ~off:s.Layout.offset
        in
        ignore
          (Vm.read_bytes ~engine:e ?audit ~label:"F" ~by:client region
             ~off:s.Layout.offset ~len:consumed);
        v :: read_outputs e ?audit ~client ~region ~proc rest
      end
      else read_outputs e ?audit ~client ~region ~proc rest

let rec slot_bytes pick acc = function
  | [] -> acc
  | (s : Layout.slot) :: rest ->
      slot_bytes pick (if pick s then acc + s.Layout.size else acc) rest

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

(* The pieces of the completion half are top-level functions that take
   their operands as arguments: a call builds no closures on its way
   through the kernel. *)

(* Send home the call's out-of-band segment (if any) and its A-stack;
   the A-stack part is idempotent. *)
let release_all rt lc ~client =
  if lc.lc_oob then Kernel.release_region rt.kernel ~owner:client lc.lc_region;
  if not lc.lc_released then begin
    lc.lc_released <- true;
    Astack.checkin rt lc.lc_pb lc.lc_astack
  end

(* Argument bytes consumed on a processor other than the one that wrote
   them drag cache lines across the bus; charged where the consumption
   happens. This is why domain caching helps large arguments less
   (Table 4's shrinking MP column). *)
let coherency rt e bytes =
  if bytes > 0 then
    Engine.delay ~category:Category.Copy e
      (Lrpc_sim.Time.scale
         (cost_model rt).Lrpc_sim.Cost_model.coherency_per_byte
         (float_of_int bytes))

(* Put the books right after an asynchronous failure (kill, unwind,
   crash landing at any delay point of the completion half): if the
   call's linkage claim is still on [th]'s linkstack, undo it, then
   reclaim the A-stack and any out-of-band segment. Idempotent, and a
   no-op for claims already released by the normal return path. *)
let crash_cleanup rt lc ~client th ls =
  let linkage = lc.lc_astack.a_linkage in
  if linkstack_remove ls linkage then begin
    Kernel.linkage_released rt.kernel th;
    linkage.l_in_use <- false;
    linkage.l_abandoned <- false;
    linkage.l_caller <- None;
    linkage.l_return_domain <- None
  end;
  release_all rt lc ~client

(* The kernel's call-side section: validation, the linkage claim and the
   transfer into the server. *)
let call_side rt h lc th ls =
  let e = engine rt in
  let b = h.ch_binding in
  let client = b.b_client and server = b.b_server in
  let astack = lc.lc_astack in
  Engine.delay ~category:Category.Kernel_transfer e
    (cost_model rt).Lrpc_sim.Cost_model.kernel_call;
  (match
     (* The caller's identity is the domain the trapping thread actually
        runs in, not whatever the Binding Object claims — a carrier
        dispatched at issue time lives in the client domain, so it
        passes the same check the issuer would. *)
     let caller =
       match Kernel.find_domain rt.kernel (Engine.thread_domain th) with
       | Some d -> d
       | None -> raise (Bad_binding "caller has no domain")
     in
     ignore (Binding.verify rt b ~caller ~proc:h.ch_proc);
     Astack.validate rt lc.lc_pb astack
   with
  | () -> ()
  | exception exn ->
      release_all rt lc ~client;
      raise exn);
  let linkage = astack.a_linkage in
  linkage.l_in_use <- true;
  linkage.l_valid <- true;
  linkage.l_abandoned <- false;
  linkage.l_caller <- Engine.self_opt e;
  linkage.l_return_domain <- linkage.l_client;
  linkstack_push ls linkage;
  Kernel.linkage_claimed rt.kernel th;
  match
    let estack = Estack.associate rt ~server astack in
    (* Domain transfer: the executing thread crosses into the server. *)
    transfer_to rt ~target:server;
    Footprint.call_side rt b astack estack ~data_region:lc.lc_region
  with
  | () -> ()
  | exception Kernel.Domain_terminated _ ->
      (* The server terminated after [Binding.verify] passed, while this
         thread was still in the client, so no unwind was delivered to
         it; allocating its E-stack or first-touch pages in the dead
         domain fails instead. Unwind like any other termination
         outside the procedure body. *)
      raise Unwind_termination

(* How the linkage stood when the return path released it. *)
type verdict = Valid | Invalidated | Abandoned

(* The kernel's return-side section: it needs only the linkage record —
   no re-validation. *)
let return_side rt h lc th ls ~server_cpu =
  let e = engine rt in
  let b = h.ch_binding in
  let client = b.b_client in
  let linkage = lc.lc_astack.a_linkage in
  Engine.delay ~category:Category.Kernel_transfer e
    (cost_model rt).Lrpc_sim.Cost_model.kernel_return;
  ignore (linkstack_remove ls linkage : bool);
  Kernel.linkage_released rt.kernel th;
  let verdict =
    if linkage.l_abandoned then Abandoned
    else if linkage.l_valid then Valid
    else Invalidated
  in
  linkage.l_in_use <- false;
  linkage.l_caller <- None;
  linkage.l_return_domain <- None;
  if verdict <> Abandoned && Pdomain.active client then begin
    (* Cross back into the domain of the first valid linkage — the
       client, unless it terminated while we were away. *)
    transfer_to rt ~target:client;
    Footprint.return_side rt b;
    if (Engine.current_cpu e).Engine.idx <> server_cpu then
      coherency rt e lc.lc_bytes_out
  end;
  verdict

(* The server stub: run the procedure and store its outputs. Failures
   other than a kill become the call's outcome. *)
let serve rt h lc th =
  let b = h.ch_binding in
  let pb = lc.lc_pb in
  let ctx =
    {
      sc_rt = rt;
      sc_binding = b;
      sc_proc = pb.pb_spec;
      sc_plan = lc.lc_plan;
      sc_region = lc.lc_region;
      sc_thread = th;
    }
  in
  try
    (match rt.faults with
    | Some f -> (
        match f.f_server_exn ~proc:h.ch_proc with
        | Some exn -> raise exn
        | None -> ())
    | None -> ());
    let outputs = pb.pb_impl ctx in
    store_outputs ~server:b.b_server ~region:lc.lc_region ~proc:pb.pb_spec
      lc.lc_plan outputs;
    Ok ()
  with
  | Engine.Thread_killed as exn -> raise exn
  | Unwind_termination -> Error (Call_failed "server domain terminated")
  | exn -> Error exn

let run_local rt h lc th ls =
  let e = engine rt in
  let cm = cost_model rt in
  let b = h.ch_binding in
  let client = b.b_client in
  (* Trap to the kernel; validation and linkage work. *)
  Kernel.trap rt.kernel;
  enter_kernel rt;
  (match call_side rt h lc th ls with
  | () -> leave_kernel rt
  | exception exn ->
      leave_kernel rt;
      raise exn);
  (* The deadline fired while we were on our way in: the handle has
     already landed, so serve out the call as an abandoned capture — the
     kernel destroys this thread on return and the A-stack comes home
     then (§5.3). *)
  (match h.ch_abort with
  | Some _ ->
      let linkage = lc.lc_astack.a_linkage in
      linkage.l_abandoned <- true;
      linkage.l_valid <- false
  | None -> ());
  let server_cpu = (Engine.current_cpu e).Engine.idx in
  if server_cpu <> lc.lc_marshal_cpu then coherency rt e lc.lc_bytes_in;
  (* Upcall into the server's entry stub. *)
  Engine.delay ~category:Category.Stub_server e
    cm.Lrpc_sim.Cost_model.server_stub_call;
  lc.lc_t_transfer <- Engine.now e;
  if b.b_export.ex_defensive then
    defensive_copies e ?audit:lc.lc_audit ~server:b.b_server
      ~region:lc.lc_region lc.lc_plan.Layout.slots;
  let outcome = serve rt h lc th in
  (* Return transfer: the server stub traps. *)
  Engine.delay ~category:Category.Stub_server e
    cm.Lrpc_sim.Cost_model.server_stub_return;
  lc.lc_t_server <- Engine.now e;
  Kernel.trap rt.kernel;
  enter_kernel rt;
  let verdict =
    match return_side rt h lc th ls ~server_cpu with
    | v ->
        leave_kernel rt;
        v
    | exception exn ->
        leave_kernel rt;
        raise exn
  in
  if verdict = Abandoned then begin
    (* §5.3: the client released this captured call (or its deadline
       fired); the thread is destroyed in the kernel upon release, and
       the A-stack it was still holding goes home now. *)
    release_all rt lc ~client;
    raise Engine.Thread_killed
  end;
  if not (Pdomain.active client) then begin
    release_all rt lc ~client;
    raise Engine.Thread_killed
  end;
  match outcome with
  | Ok () when verdict = Invalidated ->
      Error (Call_failed "linkage invalidated")
  | o -> o

(* Everything from the kernel trap to the return transfer, executed on
   the thread that actually crosses into the server: the issuing thread
   itself for synchronous calls (so Tables 4/5 are reproduced by the
   very same delay sequence as before the handle split), or a carrier
   thread for pipelined ones. May raise [Engine.Thread_killed] (the
   §5.3 abandoned-call paths); any other failure is returned as the
   call's outcome. *)
let complete_local rt h lc =
  let th = Engine.self (engine rt) in
  let ls = linkstack_of rt th in
  let b = h.ch_binding in
  let client = b.b_client in
  match run_local rt h lc th ls with
  | outcome -> outcome
  | exception Unwind_termination ->
      (* The server domain terminated under us outside the procedure
         body (the in-body case surfaces through the normal return
         path). Unwind the linkage claim, reclaim the A-stack, and come
         home, if the thread had crossed over, so the restarted caller
         continues in its own domain. *)
      crash_cleanup rt lc ~client th ls;
      if Pdomain.active client && Engine.thread_domain th <> client.Pdomain.id
      then begin
        transfer_to rt ~target:client;
        Footprint.return_side rt b
      end;
      Error (Call_failed "server domain terminated")
  | exception exn ->
      (* Thread_killed and everything else: reclaim, then let
         run_completion land or re-raise it. *)
      crash_cleanup rt lc ~client th ls;
      raise exn

(* A remote call's window slot goes home, waking the longest-blocked
   issuer. Idempotent. *)
let release_slot r rc =
  if rc.rc_slot_held then begin
    rc.rc_slot_held <- false;
    r.r_in_flight <- r.r_in_flight - 1;
    ignore (Waitq.signal r.r_wait)
  end

(* §5.1: the conventional network path, behind the remote bit. The
   window slot claimed at issue is returned when the reply lands. *)
let complete_remote _rt h rc =
  let r =
    match h.ch_binding.b_remote with Some r -> r | None -> assert false
  in
  match r.r_transport ~proc:h.ch_proc rc.rc_args with
  | results ->
      rc.rc_results <- results;
      release_slot r rc;
      Ok ()
  | exception (Engine.Thread_killed as exn) ->
      release_slot r rc;
      raise exn
  | exception exn ->
      release_slot r rc;
      Error exn

let complete_body rt h =
  match h.ch_kind with
  | Ck_local lc -> complete_local rt h lc
  | Ck_remote rc -> complete_remote rt h rc

(* Send home whatever the issue half claimed — the A-stack (and any
   out-of-band region) of a local call, the window slot of a remote one
   — without running the completion half. Idempotent against the
   completion half's own release paths. *)
let reclaim_issue rt h =
  let b = h.ch_binding in
  match h.ch_kind with
  | Ck_local lc -> release_all rt lc ~client:b.b_client
  | Ck_remote rc -> (
      match b.b_remote with Some r -> release_slot r rc | None -> assert false)

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
      match outcome with
      | Ok () ->
          (* Client stub, return side: copy F off the A-stack, then the
             A-stack goes home. *)
          Engine.delay ~category:Category.Stub_client e
            cm.Lrpc_sim.Cost_model.client_stub_return;
          let outputs =
            read_outputs e ?audit:lc.lc_audit ~client ~region:lc.lc_region
              ~proc:lc.lc_pb.pb_spec lc.lc_plan.Layout.slots
          in
          release_all rt lc ~client;
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
            release_all rt lc ~client
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
  (match
     marshal_inputs e ?audit ~client:caller ~region:data_region
       plan.Layout.slots
   with
  | () -> ()
  | exception exn ->
      if oob then Kernel.release_region rt.kernel ~owner:client data_region;
      Astack.checkin rt pb astack;
      raise exn);
  let t_marshal = Engine.now e in
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
      lc_bytes_in = slot_bytes Layout.is_input 0 plan.Layout.slots;
      lc_bytes_out = slot_bytes Layout.is_output 0 plan.Layout.slots;
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
            (* The carrier lives for this one call: its linkstack goes
               with it rather than waiting for a sweep. *)
            let self = Engine.self e in
            match run_completion rt h with
            | () -> drop_linkstack rt self
            | exception exn ->
                drop_linkstack rt self;
                raise exn)
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
