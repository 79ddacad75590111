module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Category = Lrpc_sim.Category
module Metrics = Lrpc_obs.Metrics
module Spinlock = Lrpc_sim.Spinlock
module Waitq = Lrpc_sim.Waitq
module Cost_model = Lrpc_sim.Cost_model
module Kernel = Lrpc_kernel.Kernel
module Pdomain = Lrpc_kernel.Pdomain
module Vm = Lrpc_kernel.Vm
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module Layout = Lrpc_idl.Layout

type impl = V.t list -> V.t list

let buffer_bytes = 8_192

(* A set of message buffers for one in-flight call. Which regions exist
   depends on the copy regime; absent ones are never touched. *)
type bufset = {
  bs_client : Vm.region option;
  bs_kernel : Vm.region option;
  bs_server : Vm.region option;
  bs_shared : Vm.region option;
}

type message = {
  m_plan : Layout.plan;
  m_proc : I.proc;
  m_impl : impl;
  m_client_thread : Engine.thread;
  m_bufs : bufset;
  m_audit : Vm.audit option;
  m_regs : V.t list option;
      (* Karger-style register path: the arguments ride in registers
         through the kernel; no message buffer exists *)
  mutable m_reg_results : V.t list option;
  mutable m_done : bool;
  mutable m_failed : exn option;
}

and server = {
  srv_kernel : Kernel.t;
  srv_profile : Profile.t;
  srv_domain : Pdomain.t;
  srv_iface : I.interface;
  srv_impls : (string * impl) list;
  srv_port : message Queue.t;
  srv_recv_wait : Waitq.t;
  srv_lock : Spinlock.t option;
  srv_c_calls : Metrics.counter;  (** ["mpass.calls{profile=...}"] *)
  srv_h_call : Metrics.histogram;  (** ["mpass.call_us{profile=...}"] *)
}

and conn = {
  c_server : server;
  c_client : Pdomain.t;
  c_layouts : (string * Layout.t) list;
  mutable c_free : bufset list;
  c_pool_wait : Waitq.t;
}

let engine s = Kernel.engine s.srv_kernel

let locked s f =
  match s.srv_lock with
  | Some lk -> Spinlock.with_lock lk ~hold:Time.zero f
  | None -> f ()

let delay s cat d = if d <> Time.zero then Engine.delay ~category:cat (engine s) d

(* Flat post-context-switch TLB refill charge; the baselines do not carry
   page footprints, they pay the same working-set refill the hardware
   minimum assumes. *)
let tlb_flat s n =
  let cm = Kernel.cost_model s.srv_kernel in
  Engine.delay ~category:Category.Tlb_miss (engine s)
    (Time.scale cm.Cost_model.tlb_miss (float_of_int n))

let slot_type (slot : Layout.slot) ~proc =
  match slot.Layout.sparam with
  | Some p -> p.I.ty
  | None -> (
      match proc.I.result with Some ty -> ty | None -> assert false)

let server_visible s bufs =
  match s.srv_profile.Profile.copies with
  | Profile.Shared -> Option.get bufs.bs_shared
  | Profile.Traditional | Profile.Restricted -> Option.get bufs.bs_server

let client_visible s bufs =
  match s.srv_profile.Profile.copies with
  | Profile.Shared -> Option.get bufs.bs_shared
  | Profile.Traditional | Profile.Restricted -> Option.get bufs.bs_client

(* Kernel-mediated movement of one message. [reverse] is the reply
   direction (receiver's buffer back to the sender's). *)
let kernel_copies s ?audit bufs ~len ~reverse =
  let p = s.srv_profile in
  let e = engine s in
  if len > 0 then
    match p.Profile.copies with
    | Profile.Shared -> ()
    | Profile.Restricted ->
        let src, dst =
          if reverse then (Option.get bufs.bs_server, Option.get bufs.bs_client)
          else (Option.get bufs.bs_client, Option.get bufs.bs_server)
        in
        Vm.region_to_region ~engine:e ~rate:p.Profile.kernel_copy_rate ?audit
          ~label:"D" ~src ~src_off:0 ~dst ~dst_off:0 ~len ()
    | Profile.Traditional ->
        let src, dst =
          if reverse then (Option.get bufs.bs_server, Option.get bufs.bs_client)
          else (Option.get bufs.bs_client, Option.get bufs.bs_server)
        in
        let k = Option.get bufs.bs_kernel in
        Vm.region_to_region ~engine:e ~rate:p.Profile.kernel_copy_rate ?audit
          ~label:"B" ~src ~src_off:0 ~dst:k ~dst_off:0 ~len ();
        Vm.region_to_region ~engine:e ~rate:p.Profile.kernel_copy_rate ?audit
          ~label:"C" ~src:k ~src_off:0 ~dst ~dst_off:0 ~len ()

(* ------------------------------------------------------------------ *)
(* The receiver (server) side                                          *)
(* ------------------------------------------------------------------ *)

(* 4-byte register moves cost a fraction of a memory copy. *)
let register_move_cost = Time.ns 250

let register_moves s values =
  let words =
    List.fold_left (fun acc v -> acc + ((V.payload_bytes v + 3) / 4)) 0 values
  in
  if words > 0 then
    Engine.delay ~category:Category.Copy (engine s)
      (Time.scale register_move_cost (float_of_int words))

let process_message s msg =
  let p = s.srv_profile in
  let e = engine s in
  let audit = msg.m_audit in
  let server = s.srv_domain in
  tlb_flat s Cost_model.call_side_tlb_misses;
  locked s (fun () -> delay s Category.Dispatch p.Profile.dispatch);
  delay s Category.Stub_server p.Profile.stub_call_server;
  (match msg.m_regs with
  | Some args -> (
      (* Register path: arguments already sit in registers. *)
      match msg.m_impl args with
      | outputs -> msg.m_reg_results <- Some outputs
      | exception exn -> msg.m_failed <- Some exn)
  | None ->
      let inbuf = server_visible s msg.m_bufs in
      (* Copy E: message to the server's stack, one operation per value,
         decoding as we go. *)
      let args =
        List.map
          (fun (slot : Layout.slot) ->
            let v, consumed =
              V.decode
                (slot_type slot ~proc:msg.m_proc)
                (Vm.data inbuf) ~off:slot.Layout.offset
            in
            ignore
              (Vm.read_bytes ~engine:e ~rate:p.Profile.marshal_rate ?audit
                 ~label:"E" ~by:server inbuf ~off:slot.Layout.offset
                 ~len:consumed);
            v)
          (Layout.input_slots msg.m_plan)
      in
      (match msg.m_impl args with
      | outputs ->
          (* The server places results directly into the reply message;
             this is the procedure storing its results, not an extra
             copy. *)
          let out_slots = Layout.output_slots msg.m_plan in
          if List.length out_slots <> List.length outputs then
            msg.m_failed <-
              Some
                (Invalid_argument
                   (Printf.sprintf "%s: wrong output arity"
                      msg.m_proc.I.proc_name))
          else
            List.iter2
              (fun (slot : Layout.slot) v ->
                let encoded = V.encode (slot_type slot ~proc:msg.m_proc) v in
                Vm.poke ~by:server inbuf ~off:slot.Layout.offset encoded)
              out_slots outputs
      | exception exn -> msg.m_failed <- Some exn));
  delay s Category.Stub_server p.Profile.stub_return_server;
  Kernel.trap s.srv_kernel;
  delay s Category.Validation p.Profile.validation;
  (match msg.m_regs with
  | Some _ ->
      (match msg.m_reg_results with
      | Some results -> register_moves s results
      | None -> ())
  | None ->
      kernel_copies s ?audit msg.m_bufs ~len:msg.m_plan.Layout.total_bytes
        ~reverse:true;
      locked s (fun () -> delay s Category.Buffer_mgmt p.Profile.buffer_mgmt));
  locked s (fun () ->
      delay s Category.Queueing p.Profile.queueing;
      delay s Category.Scheduling p.Profile.scheduling);
  msg.m_done <- true;
  if p.Profile.handoff then
    if Queue.is_empty s.srv_port then
      (* Reply with handoff scheduling: give the client our processor and
         go back to sleep on the port in the same step. *)
      Waitq.wait_handoff s.srv_recv_wait ~to_:msg.m_client_thread
    else
      (* Messages are waiting: donate the processor for the reply but
         stay runnable to keep draining the port. *)
      Engine.yield_to e ~to_:msg.m_client_thread
  else Engine.wake e msg.m_client_thread

let rec receiver_loop s =
  (match Queue.take_opt s.srv_port with
  | Some msg -> process_message s msg
  | None -> Waitq.wait s.srv_recv_wait);
  receiver_loop s

let create_server kernel profile ~domain iface ~impls =
  (match I.validate iface with
  | Ok () -> ()
  | Error m -> invalid_arg ("Mpass.create_server: " ^ m));
  List.iter
    (fun (p : I.proc) ->
      if not (List.mem_assoc p.I.proc_name impls) then
        invalid_arg ("Mpass.create_server: missing impl for " ^ p.I.proc_name))
    iface.I.procs;
  let s =
    {
      srv_kernel = kernel;
      srv_profile = profile;
      srv_domain = domain;
      srv_iface = iface;
      srv_impls = impls;
      srv_port = Queue.create ();
      srv_recv_wait = Waitq.create (Kernel.engine kernel);
      srv_lock =
        (if profile.Profile.global_lock then
           Some (Spinlock.create ~name:"rpc-global-lock" (Kernel.engine kernel))
         else None);
      srv_c_calls =
        Metrics.counter
          (Engine.metrics (Kernel.engine kernel))
          ~labels:[ ("profile", profile.Profile.p_name) ]
          "mpass.calls";
      srv_h_call =
        Metrics.histogram
          (Engine.metrics (Kernel.engine kernel))
          ~labels:[ ("profile", profile.Profile.p_name) ]
          "mpass.call_us";
    }
  in
  for i = 1 to profile.Profile.receivers do
    ignore
      (Kernel.spawn kernel domain
         ~name:(Printf.sprintf "%s-recv%d" domain.Pdomain.name i)
         (fun () -> receiver_loop s))
  done;
  s

(* ------------------------------------------------------------------ *)
(* The client side                                                     *)
(* ------------------------------------------------------------------ *)

let make_bufset s ~client ~bytes =
  let k = s.srv_kernel in
  let alloc ~owner ~name ~mapped =
    Some (Kernel.alloc_region k ~owner ~name ~bytes ~mapped)
  in
  match s.srv_profile.Profile.copies with
  | Profile.Shared ->
      {
        bs_client = None;
        bs_kernel = None;
        bs_server = None;
        (* SRC RPC: buffers globally shared across all domains. *)
        bs_shared =
          alloc ~owner:client ~name:"msg-shared"
            ~mapped:[ client; s.srv_domain ];
      }
  | Profile.Restricted ->
      {
        bs_client = alloc ~owner:client ~name:"msg-client" ~mapped:[ client ];
        bs_kernel = None;
        bs_server =
          alloc ~owner:s.srv_domain ~name:"msg-server" ~mapped:[ s.srv_domain ];
        bs_shared = None;
      }
  | Profile.Traditional ->
      {
        bs_client = alloc ~owner:client ~name:"msg-client" ~mapped:[ client ];
        bs_kernel =
          alloc ~owner:(Kernel.kernel_domain k) ~name:"msg-kernel" ~mapped:[];
        bs_server =
          alloc ~owner:s.srv_domain ~name:"msg-server" ~mapped:[ s.srv_domain ];
        bs_shared = None;
      }

let connect s ~client =
  let layouts =
    List.map
      (fun (p : I.proc) ->
        (p.I.proc_name, Layout.of_proc ~default_size:buffer_bytes p))
      s.srv_iface.I.procs
  in
  let pool =
    List.init
      (s.srv_profile.Profile.receivers + 4)
      (fun _ -> make_bufset s ~client ~bytes:buffer_bytes)
  in
  {
    c_server = s;
    c_client = client;
    c_layouts = layouts;
    c_free = pool;
    c_pool_wait = Waitq.create (engine s);
  }

(* Flow control: block when every message buffer is in flight. *)
let rec take_bufset conn ~bytes =
  if bytes > buffer_bytes then
    (* oversize one-off, not pooled *)
    `Transient (make_bufset conn.c_server ~client:conn.c_client ~bytes)
  else
    match conn.c_free with
    | b :: rest ->
        conn.c_free <- rest;
        `Pooled b
    | [] ->
        Waitq.wait conn.c_pool_wait;
        take_bufset conn ~bytes

let release_bufset conn = function
  | `None -> ()
  | `Pooled b ->
      conn.c_free <- b :: conn.c_free;
      ignore (Waitq.signal conn.c_pool_wait)
  | `Transient b ->
      let k = conn.c_server.srv_kernel in
      let release owner = function
        | Some r -> Kernel.release_region k ~owner r
        | None -> ()
      in
      release conn.c_client b.bs_client;
      release (Kernel.kernel_domain k) b.bs_kernel;
      release conn.c_server.srv_domain b.bs_server;
      release conn.c_client b.bs_shared

let call ?audit conn ~proc args =
  let s = conn.c_server in
  let p = s.srv_profile in
  let e = engine s in
  let cm = Kernel.cost_model s.srv_kernel in
  let me = Engine.self e in
  let t0 = Engine.now e in
  Engine.delay ~category:Category.Proc_call e cm.Cost_model.proc_call;
  delay s Category.Stub_client p.Profile.stub_call_client;
  let layout =
    match List.assoc_opt proc conn.c_layouts with
    | Some l -> l
    | None -> invalid_arg ("Mpass.call: no such procedure: " ^ proc)
  in
  let plan = Layout.plan layout ~args in
  (* Karger-style register passing: when every argument and result fits
     in the profile's register budget, the message buffer and all its
     copies vanish. One byte over and the full path is taken — the
     discontinuity of the paper's footnote 2. *)
  let in_registers =
    p.Profile.register_words > 0
    && plan.Layout.total_bytes <= 4 * p.Profile.register_words
  in
  let holder =
    if in_registers then `None
    else take_bufset conn ~bytes:plan.Layout.total_bytes
  in
  let bufs =
    match holder with
    | `Pooled b | `Transient b -> b
    | `None ->
        { bs_client = None; bs_kernel = None; bs_server = None; bs_shared = None }
  in
  let results =
    Fun.protect
      ~finally:(fun () -> release_bufset conn holder)
      (fun () ->
      if in_registers then register_moves s args
      else begin
        (* Copy A: client stack into the message, one op per value. *)
        let outbuf = client_visible s bufs in
        List.iter
          (fun (slot : Layout.slot) ->
            match slot.Layout.svalue with
            | Some v ->
                let encoded =
                  V.encode (slot_type slot ~proc:layout.Layout.proc) v
                in
                Vm.write_bytes ~engine:e ~rate:p.Profile.marshal_rate ?audit
                  ~label:"A" ~by:conn.c_client outbuf ~off:slot.Layout.offset
                  encoded
            | None -> ())
          plan.Layout.slots
      end;
      if not in_registers then
        locked s (fun () -> delay s Category.Buffer_mgmt p.Profile.buffer_mgmt);
      locked s (fun () ->
          delay s Category.Queueing p.Profile.queueing;
          delay s Category.Scheduling p.Profile.scheduling);
      Kernel.trap s.srv_kernel;
      delay s Category.Validation p.Profile.validation;
      if not in_registers then
        kernel_copies s ?audit bufs ~len:plan.Layout.total_bytes ~reverse:false;
      let msg =
        {
          m_plan = plan;
          m_proc = layout.Layout.proc;
          m_impl =
            (match List.assoc_opt proc s.srv_impls with
            | Some impl -> impl
            | None -> fun _ -> invalid_arg ("no impl: " ^ proc));
          m_client_thread = me;
          m_bufs = bufs;
          m_audit = audit;
          m_regs = (if in_registers then Some args else None);
          m_reg_results = None;
          m_done = false;
          m_failed = None;
        }
      in
      Queue.push msg s.srv_port;
      (* Rendezvous with a receiver thread, then sleep until the reply. *)
      if p.Profile.handoff && Waitq.waiting s.srv_recv_wait > 0 then
        ignore (Waitq.signal_handoff s.srv_recv_wait)
      else begin
        ignore (Waitq.signal s.srv_recv_wait);
        Engine.block e
      end;
      while not msg.m_done do
        (* Spurious wakeups cannot normally happen, but guard anyway. *)
        Engine.block e
      done;
      (* Back in the client's context. *)
      tlb_flat s Cost_model.return_side_tlb_misses;
      locked s (fun () -> delay s Category.Runtime p.Profile.runtime_locked);
      delay s Category.Runtime
        (Time.sub p.Profile.runtime p.Profile.runtime_locked);
      delay s Category.Stub_client p.Profile.stub_return_client;
      match msg.m_failed with
      | Some exn -> raise exn
      | None -> (
          match msg.m_reg_results with
          | Some results -> results
          | None ->
              (* Copy F: reply message into the client's result
                 variables. *)
              let inbuf = client_visible s bufs in
              List.map
                (fun (slot : Layout.slot) ->
                  let v, consumed =
                    V.decode
                      (slot_type slot ~proc:layout.Layout.proc)
                      (Vm.data inbuf) ~off:slot.Layout.offset
                  in
                  ignore
                    (Vm.read_bytes ~engine:e ~rate:p.Profile.readback_rate
                       ?audit ~label:"F" ~by:conn.c_client inbuf
                       ~off:slot.Layout.offset ~len:consumed);
                  v)
                (Layout.output_slots plan)))
  in
  Metrics.Counter.incr s.srv_c_calls;
  Metrics.Histo.observe_us s.srv_h_call (Time.sub (Engine.now e) t0);
  results

let lock_contention s =
  match s.srv_lock with Some lk -> Spinlock.contended_acquires lk | None -> 0
