module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics

exception Thread_killed
exception Not_in_thread

type state = Embryo | Ready | Running | Blocked | Spinning | Done | Failed

(* The continuation slot holds the continuation itself, unwrapped, so
   parking one allocates nothing beyond the continuation the runtime
   hands the handler. An empty slot holds [no_cont], a sentinel captured
   once below. *)
type thread = {
  tid : int;
  name : string;
  mutable domain : int;
  mutable state : state;
  mutable cpu : int; (* index, -1 when not on a processor *)
  mutable last_cpu : int;
  home : int; (* preferred processor, -1 for any *)
  mutable cont : (unit, unit) Effect.Deep.continuation;
  mutable body : (unit -> unit) option;
  mutable pending_exn : exn option;
  mutable spin_start : Time.t;
  mutable ever_placed : bool;
  mutable rq_seq : int;
      (* enqueue stamp of this thread's live run-queue entry, -1 when it
         has none; a queue cell whose stamp disagrees is a ghost left by
         a steal and is skipped *)
  run_ev : event; (* preallocated [Run self]: scheduling never allocates *)
  some_self : thread option; (* preallocated [Some self] for [current] *)
  mutable eff_cat : Category.t;
  mutable eff_dur : Time.t;
  mutable eff_fn : thread -> unit;
      (* operands of the thread's pending [Delay]/[Suspend]: the effects
         carry no payload, so performing one allocates nothing *)
}

and timer = { t_fn : unit -> unit; mutable t_cancelled : bool }

and event = Run of thread | Fire of timer

type cpu = {
  idx : int;
  mutable running : thread option;
  mutable context : int option;
  tlb : Tlb.t;
  mutable busy : Time.t;
  mutable rq_stamps : int array;
  mutable rq_slots : thread option array;
      (* this processor's run queue: a power-of-two ring of (enqueue
         stamp, [th.some_self]) cells, so push and pop allocate nothing *)
  mutable rq_head : int; (* slot of the oldest cell *)
  mutable rq_len : int; (* cells in the ring, ghosts included *)
  mutable steals : int;
  mutable steals_tagged : int;
  mutable steals_near : int;
  mutable steals_far : int;
  mutable lock_spin : Time.t;
}

type t = {
  cm : Cost_model.t;
  cpus_ : cpu array;
  run_q : event Heap.t; (* [Run] resumptions: ~one live entry per CPU *)
  timers : event Heap.t; (* [Fire] timers, often parked far ahead *)
  mutable key_seq : int; (* tiebreak counter shared by both heaps *)
  mutable ready_seq : int; (* global enqueue stamp: cross-queue FIFO age *)
  mutable rq_live : int;
      (* threads holding a live run-queue entry ([rq_seq >= 0]); a free
         processor skips the steal scan when it is 0 *)
  (* Steal-scan scratch: the oldest live entry and the oldest whose
     domain matches the thief's context, with their victim queues. *)
  mutable sc_best : thread option;
  mutable sc_best_seq : int;
  mutable sc_victim : int;
  mutable sc_tag : thread option;
  mutable sc_tag_seq : int;
  mutable sc_victim_tag : int;
  mutable rr_next : int; (* round-robin target for unpinned enqueues *)
  mutable now_ : Time.t;
  mutable next_tid : int;
  mutable current : thread option;
  mutable failures_ : (thread * exn) list;
  mutable threads : thread list;
      (* spawned threads, newest first; finished ones are reaped at spawn
         once the list has doubled since the last reap *)
  mutable threads_len : int;
  mutable threads_reap_at : int;
  metrics_ : Metrics.t;
  cat_time : Metrics.counter array; (* charged ns, indexed by Category.index *)
  tlb_miss_count : Metrics.counter;
  mutable running_host : bool;
  mutable tracer : Trace.t option;
  (* Preallocated suspension callbacks for the closure-free fast paths
     ([block]/[yield]/[spin_suspend] are per-call operations). *)
  mutable fn_block : thread -> unit;
  mutable fn_yield : thread -> unit;
  mutable fn_spin : thread -> unit;
  mutable handler : (unit, unit) Effect.Deep.handler;
      (* the one effect handler every thread body runs under; it finds
         the performing thread through [current] *)
  mutable on_idle : cpu -> unit;
      (* consulted when a processor finds no runnable thread anywhere
         (own queue and steal scan both empty); the kernel hangs its
         idle-processor prod policy here. Runs at engine level: it may
         retag contexts but must not perform effects. *)
  c_steals : Metrics.counter;
  c_steals_tagged : Metrics.counter;
  c_steals_near : Metrics.counter;
  c_steals_far : Metrics.counter;
  topo : Cost_model.topology option;
      (* cm.topology, hoisted out of the per-dispatch hot path; None on
         every published model keeps those paths byte-identical *)
  victims : int array array;
      (* per-CPU distance-ordered steal scan order (empty without a
         topology): own cluster first, then the rest of the machine *)
  victims_near : int array;
      (* how many leading entries of each ring are same-cluster *)
}

type _ Effect.t += Delay : unit Effect.t | Suspend : unit Effect.t

(* The empty-slot sentinel: the continuation of a fiber that performs
   [Sentinel] once at module initialisation and is never resumed. It is
   compared by physical identity only, never continued. *)
type _ Effect.t += Sentinel : unit Effect.t

let no_cont : (unit, unit) Effect.Deep.continuation =
  let slot : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with
    (fun () -> Effect.perform Sentinel)
    ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Sentinel ->
              Some
                (fun (k : (unit, unit) Effect.Deep.continuation) ->
                  slot := Some k)
          | _ -> None);
    };
  match !slot with Some k -> k | None -> assert false

let[@inline] tracing t =
  match t.tracer with None -> false | Some _ -> true

let now t = t.now_

(* Non-optional-argument emit for the engine's own hot call sites: no
   [Some tid] wrappers, and callers guard with [tracing] so the event
   payload is never even constructed when detached. *)
let emit_at t ~tid ~cpu kind =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.emit tr ~at:t.now_ ~tid ~cpu kind

(* --- construction ------------------------------------------------------ *)

(* Smallest thread-list length worth reaping at: keeps short-lived
   engines from filtering a handful of threads on every spawn. *)
let reap_floor = 64

(* Initial run-queue ring capacity (a power of two); rings double when
   full and never shrink. *)
let rq_initial = 8

let create ?(processors = 1) ?(domains = 1) cm =
  assert (processors > 0);
  if domains <> 1 then
    invalid_arg "Engine.create: ~domains is deprecated and accepts only 1";
  let cpus_ =
    Array.init processors (fun idx ->
        {
          idx;
          running = None;
          context = None;
          tlb = Tlb.create ~capacity:cm.Cost_model.tlb_capacity ~tagged:cm.Cost_model.tlb_tagged;
          busy = Time.zero;
          rq_stamps = Array.make rq_initial (-1);
          rq_slots = Array.make rq_initial None;
          rq_head = 0;
          rq_len = 0;
          steals = 0;
          steals_tagged = 0;
          steals_near = 0;
          steals_far = 0;
          lock_spin = Time.zero;
        })
  in
  let metrics_ = Metrics.create () in
  (* Category.all is in Category.index order, so position = index. *)
  let cat_time =
    Array.of_list
      (List.map
         (fun cat ->
           Metrics.counter metrics_
             ~labels:[ ("category", Category.slug cat) ]
             "sim.time_ns")
         Category.all)
  in
  let t =
    {
      cm;
      cpus_;
      run_q = Heap.create ();
      timers = Heap.create ();
      key_seq = 0;
      ready_seq = 0;
      rq_live = 0;
      sc_best = None;
      sc_best_seq = max_int;
      sc_victim = -1;
      sc_tag = None;
      sc_tag_seq = max_int;
      sc_victim_tag = -1;
      rr_next = 0;
      now_ = Time.zero;
      next_tid = 0;
      current = None;
      failures_ = [];
      threads = [];
      threads_len = 0;
      threads_reap_at = reap_floor;
      metrics_;
      cat_time;
      tlb_miss_count = Metrics.counter metrics_ "sim.tlb_misses";
      running_host = false;
      tracer = None;
      fn_block = ignore;
      fn_yield = ignore;
      fn_spin = ignore;
      handler =
        {
          retc = ignore;
          exnc = raise;
          effc = (fun (type a) (_ : a Effect.t) -> None);
        };
      on_idle = ignore;
      c_steals =
        Metrics.counter metrics_ ~labels:[ ("kind", "retag") ] "sim.steals";
      c_steals_tagged =
        Metrics.counter metrics_ ~labels:[ ("kind", "tagged") ] "sim.steals";
      c_steals_near =
        Metrics.counter metrics_ ~labels:[ ("dist", "near") ] "sim.steals_dist";
      c_steals_far =
        Metrics.counter metrics_ ~labels:[ ("dist", "far") ] "sim.steals_dist";
      topo = cm.Cost_model.topology;
      victims =
        (match cm.Cost_model.topology with
        | None -> [||]
        | Some topo ->
            Array.init processors (fun cpu ->
                Cost_model.victim_ring topo ~cpus:processors ~cpu));
      victims_near =
        (match cm.Cost_model.topology with
        | None -> [||]
        | Some topo ->
            Array.init processors (fun cpu ->
                let lo =
                  Cost_model.cluster_of topo cpu * topo.Cost_model.cluster_size
                in
                let hi =
                  min processors (lo + topo.Cost_model.cluster_size)
                in
                hi - lo - 1));
    }
  in
  t.fn_spin <-
    (fun th ->
      th.state <- Spinning;
      th.spin_start <- now t);
  t

let set_tracer t tracer = t.tracer <- tracer

let metrics t = t.metrics_

let emit ?tid ?cpu t kind =
  match t.tracer with
  | None -> ()
  | Some _ ->
      let dtid, dcpu =
        match t.current with
        | Some th -> (th.tid, th.cpu)
        | None -> (-1, -1)
      in
      let tid = match tid with Some x -> x | None -> dtid in
      let cpu = match cpu with Some x -> x | None -> dcpu in
      emit_at t ~tid ~cpu kind

let cost_model t = t.cm
let cpus t = t.cpus_

let charge t cat d = Metrics.Counter.add t.cat_time.(Category.index cat) d

let breakdown t =
  List.filter_map
    (fun cat ->
      match Metrics.Counter.value t.cat_time.(Category.index cat) with
      | 0 -> None
      | ns -> Some (cat, ns))
    Category.all

let reset_breakdown t = Array.iter Metrics.Counter.reset t.cat_time

let total_tlb_misses t =
  Array.fold_left (fun acc c -> acc + Tlb.miss_count c.tlb) 0 t.cpus_

let thread_id th = th.tid
let thread_name th = th.name
let thread_domain th = th.domain

let thread_cpu_index th = th.cpu

let alive th = match th.state with Done | Failed -> false | _ -> true

let has_pending_interrupt th = th.pending_exn <> None

let failures t = t.failures_

let stuck_threads t =
  List.filter
    (fun th ->
      match th.state with
      | Blocked | Spinning | Ready | Embryo -> true
      | Running | Done | Failed -> false)
    t.threads

(* --- event queue ---------------------------------------------------------

   Two heaps under one (time, key) order: one for thread resumptions,
   due within microseconds and at most about one live entry per CPU,
   and one for timers, which sessions park far in the future. A
   resumption therefore never sifts through parked timers. Both draw
   keys from one counter, so popping the earlier head of the two
   ({!Heap.earlier}) reproduces the one-heap order exactly. *)

let push t ~time ev =
  let key = t.key_seq in
  t.key_seq <- key + 1;
  match ev with
  | Run _ -> Heap.push_key t.run_q ~time ~key ev
  | Fire _ -> Heap.push_key t.timers ~time ~key ev

(* --- dispatch machinery ------------------------------------------------ *)

let[@inline] cpu_free c =
  match c.running with None -> true | Some _ -> false

(* Assign [th] to the free processor [c], charging a context switch when
   the loaded VM context differs from the thread's domain, and schedule
   its resumption. Under a topology the reload is scaled by the longest
   pull the placement implies: the thread's working set from the CPU it
   last ran on (steal multiplier when thief-initiated, dispatch
   multiplier otherwise), and — for steals — its queue entry and
   home-cluster state from the victim queue's CPU. Without a topology
   ([topo = None]) the arithmetic is byte-identical to the flat engine
   (no float traffic). *)
let place ~stolen ~victim t th c =
  assert (cpu_free c);
  assert (th.cpu = -1);
  let prev = th.last_cpu in
  c.running <- th.some_self;
  th.cpu <- c.idx;
  th.last_cpu <- c.idx;
  th.state <- Running;
  let differs =
    match c.context with Some d -> d <> th.domain | None -> true
  in
  let cost =
    if differs then begin
      Tlb.invalidate c.tlb;
      c.context <- Some th.domain;
      (* The very first placement models a process that already existed
         when the measurement window opened (as in the paper's set-up);
         it loads the context without charging anyone. *)
      if th.ever_placed then begin
        let reload =
          match t.topo with
          | None -> t.cm.Cost_model.vm_reload
          | Some topo ->
              (* A stolen thread's reload covers the longer of two
                 pulls: its working set from the CPU it last ran on,
                 and its queue entry / home-cluster state from the
                 victim queue's CPU. *)
              let m_mig =
                if prev < 0 then 1.0
                else if stolen then Cost_model.steal_mult topo prev c.idx
                else Cost_model.dispatch_mult topo prev c.idx
              in
              let m_queue =
                if stolen && victim >= 0 then
                  Cost_model.steal_mult topo victim c.idx
                else 1.0
              in
              let m = Float.max m_mig m_queue in
              if m = 1.0 then t.cm.Cost_model.vm_reload
              else Time.scale t.cm.Cost_model.vm_reload m
        in
        charge t Category.Context_switch reload;
        c.busy <- Time.add c.busy reload;
        reload
      end
      else Time.zero
    end
    else
      (* Warm context: the flat engine charges nothing — a tagged steal
         is the whole point of the tag preference. Under a topology a
         cross-cluster pull still moves the thread's stack and queue
         state over the interconnect, so it pays the distance premium
         (the multiplier's excess over the free local pull). *)
      match t.topo with
      | Some topo when stolen && th.ever_placed ->
          let m_mig =
            if prev < 0 then 1.0 else Cost_model.steal_mult topo prev c.idx
          in
          let m_queue =
            if victim >= 0 then Cost_model.steal_mult topo victim c.idx
            else 1.0
          in
          let m = Float.max m_mig m_queue in
          if m > 1.0 then begin
            let premium = Time.scale t.cm.Cost_model.vm_reload (m -. 1.0) in
            charge t Category.Context_switch premium;
            c.busy <- Time.add c.busy premium;
            premium
          end
          else Time.zero
      | _ -> Time.zero
  in
  th.ever_placed <- true;
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:c.idx
      (Event.Dispatch
         { thread = th.name; domain = th.domain; switched = cost <> Time.zero });
  push t ~time:(Time.add (now t) cost) th.run_ev

let free_cpu_of t th =
  if th.cpu >= 0 then begin
    let c = t.cpus_.(th.cpu) in
    c.running <- None;
    th.last_cpu <- th.cpu;
    th.cpu <- -1
  end

(* First free processor, preferring home then last-run: returns the cpu
   index, or -1 when none is free (no option/closure traffic — this runs
   on every wake and dispatch). *)
let pick_cpu_idx t th =
  let cpus = t.cpus_ in
  let n = Array.length cpus in
  if th.home >= 0 && th.home < n && cpu_free cpus.(th.home) then th.home
  else if th.last_cpu >= 0 && th.last_cpu < n && cpu_free cpus.(th.last_cpu)
  then th.last_cpu
  else begin
    let found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < n do
      if cpu_free cpus.(!i) then found := !i;
      incr i
    done;
    !found
  end

(* --- per-CPU run queues and work stealing -------------------------------

   Each processor owns a FIFO run queue; a runnable thread is enqueued on
   its home processor's queue (falling back to the processor it last ran
   on, then round-robin for never-placed unpinned threads). Every enqueue
   carries a globally increasing stamp so cross-queue age is comparable.
   A free processor drains its own queue first; only when that is empty —
   i.e. its tagged domain (and everyone else homed here) has no runnable
   thread — does it steal, preferring the oldest queued thread whose
   domain matches its loaded context (no retag, preserving the §3.4
   domain-caching semantics) and otherwise taking the oldest thread
   anywhere. Stolen threads are invalidated in place via the stamp; the
   ghost queue cell is skipped when reached. A queue is a growable
   power-of-two ring of (stamp, [th.some_self]) cells, and the engine
   counts the threads holding a live entry ([rq_live]): neither changes
   which thread is taken, only what it costs to find it. *)

let[@inline] entry_runnable th =
  match th.state with Embryo | Ready -> true | _ -> false

(* Double a full ring, copying its cells oldest first to slot 0. *)
let rq_grow c =
  let cap = Array.length c.rq_stamps in
  let stamps = Array.make (2 * cap) (-1) and slots = Array.make (2 * cap) None in
  for k = 0 to c.rq_len - 1 do
    let j = (c.rq_head + k) land (cap - 1) in
    stamps.(k) <- c.rq_stamps.(j);
    slots.(k) <- c.rq_slots.(j)
  done;
  c.rq_stamps <- stamps;
  c.rq_slots <- slots;
  c.rq_head <- 0

let ready_push t th =
  let n = Array.length t.cpus_ in
  let i =
    if th.home >= 0 && th.home < n then th.home
    else if th.last_cpu >= 0 && th.last_cpu < n then th.last_cpu
    else begin
      let r = t.rr_next in
      t.rr_next <- (if r + 1 >= n then 0 else r + 1);
      r
    end
  in
  let c = t.cpus_.(i) in
  let seq = t.ready_seq in
  t.ready_seq <- seq + 1;
  if th.rq_seq < 0 then t.rq_live <- t.rq_live + 1;
  th.rq_seq <- seq;
  if c.rq_len = Array.length c.rq_stamps then rq_grow c;
  let j = (c.rq_head + c.rq_len) land (Array.length c.rq_stamps - 1) in
  c.rq_stamps.(j) <- seq;
  c.rq_slots.(j) <- th.some_self;
  c.rq_len <- c.rq_len + 1

(* [th] leaves the run queues: its cell (wherever it sits) is a ghost
   from now on. *)
let[@inline] take_entry t th =
  th.rq_seq <- -1;
  t.rq_live <- t.rq_live - 1

(* Oldest live entry of a processor's own queue, discarding ghosts and
   stale entries as they surface at the head. The result is the
   thread's own [some_self], so a hit allocates nothing either. *)
let rec pop_own t c =
  if c.rq_len = 0 then None
  else begin
    let h = c.rq_head in
    let seq = c.rq_stamps.(h) and cell = c.rq_slots.(h) in
    c.rq_slots.(h) <- None;
    c.rq_head <- (h + 1) land (Array.length c.rq_stamps - 1);
    c.rq_len <- c.rq_len - 1;
    match cell with
    | Some th when th.rq_seq = seq && entry_runnable th ->
        take_entry t th;
        cell
    | Some _ | None -> pop_own t c
  end

(* Steal for the free processor [c]: scan other queues for the oldest
   live entry, tracking separately the oldest whose domain matches [c]'s
   loaded context. Preference order: tagged-domain match first (placement
   then charges no context switch), else oldest overall. The chosen
   thread is invalidated in place (its queue keeps a ghost cell) and
   placed on [c]. The candidates live in the engine's [sc_*] scratch
   fields, so a scan allocates nothing.

   Without a topology the scan covers every queue at once (the flat
   engine's behaviour, byte-identical). With one, and [near_steal] set,
   the scan walks the CPU's distance-ordered victim ring: the rest of
   its own cluster first, the remote clusters only when the near segment
   held nothing runnable. With [near_steal = false] (the distance-blind
   ablation) the scan stays flat but the distance costs and near/far
   counters still apply. *)

let scan_reset t =
  t.sc_best <- None;
  t.sc_best_seq <- max_int;
  t.sc_victim <- -1;
  t.sc_tag <- None;
  t.sc_tag_seq <- max_int;
  t.sc_victim_tag <- -1

(* Fold queue [i] into the scratch candidates. Stamps increase along a
   queue, so its first live entry and its first live tagged entry are
   the only ones that can win; the walk stops once it holds both. *)
let steal_scan t c tag i =
  (* Queues whose owner is itself free are off-limits: that processor
     drains its own queue in the same dispatch pass, and stealing from
     it would defeat the home-processor preference. *)
  let q = t.cpus_.(i) in
  if i <> c.idx && not (cpu_free q) then begin
    let mask = Array.length q.rq_stamps - 1 in
    let k = ref 0 and seen_live = ref false and seen_tag = ref false in
    while !k < q.rq_len && not (!seen_live && !seen_tag) do
      let j = (q.rq_head + !k) land mask in
      (match q.rq_slots.(j) with
      | Some th as cell ->
          let seq = q.rq_stamps.(j) in
          if th.rq_seq = seq && entry_runnable th then begin
            if not !seen_live then begin
              seen_live := true;
              if seq < t.sc_best_seq then begin
                t.sc_best_seq <- seq;
                t.sc_best <- cell;
                t.sc_victim <- i
              end
            end;
            if (not !seen_tag) && th.domain = tag then begin
              seen_tag := true;
              if seq < t.sc_tag_seq then begin
                t.sc_tag_seq <- seq;
                t.sc_tag <- cell;
                t.sc_victim_tag <- i
              end
            end
          end
      | None -> ());
      incr k
    done
  end

let take_steal t c th ~tagged ~victim =
  take_entry t th;
  if tagged then begin
    c.steals_tagged <- c.steals_tagged + 1;
    Metrics.Counter.incr t.c_steals_tagged
  end
  else begin
    c.steals <- c.steals + 1;
    Metrics.Counter.incr t.c_steals
  end;
  (match t.topo with
  | None -> ()
  | Some topo -> (
      match Cost_model.distance topo c.idx victim with
      | Cost_model.Cross_cluster ->
          c.steals_far <- c.steals_far + 1;
          Metrics.Counter.incr t.c_steals_far
      | Cost_model.Local | Cost_model.Same_cluster ->
          c.steals_near <- c.steals_near + 1;
          Metrics.Counter.incr t.c_steals_near));
  place ~stolen:true ~victim t th c

(* Take the scan's pick, if any: the tagged candidate first. *)
let steal_take t c =
  match t.sc_tag with
  | Some th ->
      take_steal t c th ~tagged:true ~victim:t.sc_victim_tag;
      true
  | None -> (
      match t.sc_best with
      | Some th ->
          take_steal t c th ~tagged:false ~victim:t.sc_victim;
          true
      | None -> false)

let[@inline] context_tag c = match c.context with Some d -> d | None -> -1

let steal_flat t c =
  let tag = context_tag c in
  scan_reset t;
  for i = 0 to Array.length t.cpus_ - 1 do
    steal_scan t c tag i
  done;
  steal_take t c

let steal_ring t c =
  let ring = t.victims.(c.idx) in
  let near = t.victims_near.(c.idx) in
  let tag = context_tag c in
  scan_reset t;
  for k = 0 to near - 1 do
    steal_scan t c tag ring.(k)
  done;
  steal_take t c
  || begin
       scan_reset t;
       for k = near to Array.length ring - 1 do
         steal_scan t c tag ring.(k)
       done;
       steal_take t c
     end

let steal t c =
  match t.topo with
  | Some topo when topo.Cost_model.near_steal -> steal_ring t c
  | _ -> steal_flat t c

(* With no live entry anywhere ([rq_live = 0]) a steal scan cannot find
   one, so it is skipped; the idle hook is consulted exactly as after an
   empty scan. *)
let dispatch_cpu t c =
  match pop_own t c with
  | Some th -> place ~stolen:false ~victim:(-1) t th c
  | None -> if t.rq_live = 0 || not (steal t c) then t.on_idle c

(* Offer every free processor a dispatch. *)
let try_dispatch t =
  let cpus = t.cpus_ in
  for i = 0 to Array.length cpus - 1 do
    let c = cpus.(i) in
    if cpu_free c then dispatch_cpu t c
  done

let spawn ?(name = "thread") ?(home = -1) t ~domain body =
  let rec th =
    {
      tid = t.next_tid;
      name;
      domain;
      state = Embryo;
      cpu = -1;
      last_cpu = -1;
      home;
      cont = no_cont;
      body = Some body;
      pending_exn = None;
      spin_start = Time.zero;
      ever_placed = false;
      rq_seq = -1;
      run_ev = Run th;
      some_self = Some th;
      eff_cat = Category.Other;
      eff_dur = Time.zero;
      eff_fn = ignore;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.threads <- th :: t.threads;
  t.threads_len <- t.threads_len + 1;
  if t.threads_len >= t.threads_reap_at then begin
    t.threads <- List.filter alive t.threads;
    t.threads_len <- List.length t.threads;
    t.threads_reap_at <- max reap_floor (2 * t.threads_len)
  end;
  ready_push t th;
  try_dispatch t;
  th

(* --- execution --------------------------------------------------------- *)

let finish t th fail =
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu
      (Event.Finish
         {
           thread = th.name;
           error = Option.map Printexc.to_string fail;
         });
  th.state <- (match fail with None -> Done | Some _ -> Failed);
  (match fail with
  | Some e -> t.failures_ <- (th, e) :: t.failures_
  | None -> ());
  th.cont <- no_cont;
  th.body <- None;
  th.eff_fn <- ignore;
  free_cpu_of t th;
  try_dispatch t

let take_cont th =
  let k = th.cont in
  assert (k != no_cont);
  th.cont <- no_cont;
  k

let executing_count t =
  let cpus = t.cpus_ in
  let n = ref 0 in
  for i = 0 to Array.length cpus - 1 do
    match cpus.(i).running with
    | Some th when th.state = Running -> incr n
    | _ -> ()
  done;
  !n

let handle_delay t th cat d k =
  assert (th.cpu >= 0);
  let d' =
    (* Alone on the bus (or no bus model): the factor is exactly 1.0 and
       [Time.scale d 1.0 = d], so skip the float round-trip entirely. *)
    let alpha = t.cm.Cost_model.bus_alpha in
    if alpha = 0.0 then d
    else
      let execn = executing_count t in
      if execn <= 1 then d
      else Time.scale d (1.0 +. (alpha *. float_of_int (execn - 1)))
  in
  charge t cat d';
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Slice { category = cat; dur = d' });
  let c = t.cpus_.(th.cpu) in
  c.busy <- Time.add c.busy d';
  th.cont <- k;
  push t ~time:(Time.add (now t) d') th.run_ev

(* The thread a handler clause runs for: [exec] makes it current before
   starting or resuming it and clears it only after control returns. *)
let performer t =
  match t.current with Some th -> th | None -> assert false

(* One effect handler serves every thread of the engine, so spawning
   builds no closures. Effect operands come from the thread record, where
   [delay]/[suspend] left them just before performing. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let on_delay =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let th = performer t in
        handle_delay t th th.eff_cat th.eff_dur k)
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let th = performer t in
        th.cont <- k;
        th.eff_fn th)
  in
  {
    retc = (fun () -> finish t (performer t) None);
    exnc =
      (fun e ->
        match e with
        | Thread_killed -> finish t (performer t) None
        | e -> finish t (performer t) (Some e));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Delay -> on_delay
        | Suspend -> on_suspend
        | _ -> None);
  }

let exec t th =
  t.current <- th.some_self;
  (match th.pending_exn with
  | Some e when th.body <> None ->
      (* Killed before first instruction. *)
      th.pending_exn <- None;
      th.body <- None;
      finish t th (match e with Thread_killed -> None | e -> Some e)
  | Some e ->
      th.pending_exn <- None;
      Effect.Deep.discontinue (take_cont th) e
  | None -> (
      match th.body with
      | Some body ->
          th.body <- None;
          Effect.Deep.match_with body () t.handler
      | None -> Effect.Deep.continue (take_cont th) ()));
  t.current <- None

(* --- run loop ------------------------------------------------------------

   Allocation-free per event: pop whichever of the run and timer heaps
   has the earlier head, advance the clock to it and execute it. *)

let run_loop t limit =
  let continue_ = ref true in
  while !continue_ do
    let h = Heap.earlier t.run_q t.timers in
    if Heap.is_empty h then continue_ := false
    else begin
      let tm = Heap.top_time h in
      if tm > limit then continue_ := false
      else begin
        t.now_ <- tm;
        match Heap.take h with
        | Run th -> (
            match th.state with
            | Running -> exec t th
            | Embryo | Ready | Blocked | Spinning | Done | Failed ->
                (* Stale event: the thread moved on (e.g. it was
                   killed while waiting and already discontinued). *)
                ())
        | Fire tmr ->
            if not tmr.t_cancelled then begin
              tmr.t_cancelled <- true;
              tmr.t_fn ()
            end
      end
    end
  done

let run ?until t =
  if t.running_host then invalid_arg "Engine.run: re-entrant call";
  t.running_host <- true;
  let limit = match until with Some u -> u | None -> max_int in
  Fun.protect
    ~finally:(fun () -> t.running_host <- false)
    (fun () -> run_loop t limit)

(* --- in-thread operations ---------------------------------------------- *)

let self t =
  match t.current with Some th -> th | None -> raise Not_in_thread

let self_opt t = t.current

let current_cpu t =
  let th = self t in
  if th.cpu < 0 then raise Not_in_thread else t.cpus_.(th.cpu)

let delay ?(category = Category.Other) t d =
  let th = self t in
  th.eff_cat <- category;
  th.eff_dur <- d;
  Effect.perform Delay

let suspend t f =
  let th = self t in
  th.eff_fn <- f;
  Effect.perform Suspend

(* [block]/[yield]/[spin_suspend] run once or more per simulated call;
   their suspension callbacks are built once per engine (in [bind_fns])
   instead of one closure per invocation. *)
let block t = suspend t t.fn_block

let yield t = suspend t t.fn_yield

let spin_suspend t = suspend t t.fn_spin

let handoff t ~to_ =
  suspend t (fun me ->
      assert (to_.state = Blocked);
      me.state <- Blocked;
      let c = t.cpus_.(me.cpu) in
      free_cpu_of t me;
      place ~stolen:false ~victim:(-1) t to_ c)

let yield_to t ~to_ =
  suspend t (fun me ->
      assert (to_.state = Blocked);
      me.state <- Ready;
      let c = t.cpus_.(me.cpu) in
      free_cpu_of t me;
      ready_push t me;
      place ~stolen:false ~victim:(-1) t to_ c)

let charge_tlb_misses t misses =
  if misses > 0 then begin
    Metrics.Counter.add t.tlb_miss_count misses;
    delay ~category:Category.Tlb_miss t
      (Time.scale t.cm.Cost_model.tlb_miss (float_of_int misses))
  end

let switch_self_context t ~domain =
  let th = self t in
  let c = current_cpu t in
  let differs =
    match c.context with Some d -> d <> domain | None -> true
  in
  if differs then begin
    if tracing t then
      emit_at t ~tid:th.tid ~cpu:c.idx
        (Event.Switch { from_domain = th.domain; to_domain = domain });
    Tlb.invalidate c.tlb;
    c.context <- Some domain;
    th.domain <- domain;
    delay ~category:Category.Context_switch t t.cm.Cost_model.vm_reload
  end
  else th.domain <- domain

let exchange_processors t ~target =
  let th = self t in
  assert (cpu_free target);
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu
      (Event.Exchange { from_cpu = th.cpu; to_cpu = target.idx });
  let old = t.cpus_.(th.cpu) in
  old.running <- None;
  th.cpu <- target.idx;
  th.last_cpu <- target.idx;
  target.running <- th.some_self;
  delay ~category:Category.Exchange t t.cm.Cost_model.processor_exchange;
  try_dispatch t

(* --- cross-thread operations ------------------------------------------- *)

let wake t th =
  match th.state with
  | Blocked ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Wake { thread = th.name });
      let i = pick_cpu_idx t th in
      if i >= 0 then place ~stolen:false ~victim:(-1) t th t.cpus_.(i)
      else begin
        th.state <- Ready;
        ready_push t th
      end
  | Spinning ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Wake { thread = th.name });
      th.state <- Running;
      let c = t.cpus_.(th.cpu) in
      let spun = Time.sub (now t) th.spin_start in
      c.busy <- Time.add c.busy spun;
      c.lock_spin <- Time.add c.lock_spin spun;
      charge t Category.Lock spun;
      if spun <> Time.zero && tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu
          (Event.Slice { category = Category.Lock; dur = spun });
      push t ~time:(now t) th.run_ev
  | Embryo | Ready | Running | Done | Failed -> ()

let place_on t th c =
  assert (th.state = Blocked);
  place ~stolen:false ~victim:(-1) t th c

let ready_enqueue t th =
  match th.state with
  | Blocked ->
      th.state <- Ready;
      ready_push t th;
      try_dispatch t
  | Embryo | Ready | Running | Spinning | Done | Failed -> ()

let set_idle_hook t f = t.on_idle <- f
let queued_threads t = t.rq_live
let topology t = t.topo

let victim_ring t cpu =
  if t.topo = None then [||]
  else Array.copy t.victims.(cpu)

let total_steals t =
  Array.fold_left (fun acc c -> acc + c.steals + c.steals_tagged) 0 t.cpus_

let total_steals_near t =
  Array.fold_left (fun acc c -> acc + c.steals_near) 0 t.cpus_

let total_steals_far t =
  Array.fold_left (fun acc c -> acc + c.steals_far) 0 t.cpus_

let interrupt t th e =
  match th.state with
  | Done | Failed -> ()
  | _ -> (
      th.pending_exn <- Some e;
      match th.state with
      | Blocked | Spinning -> wake t th
      | Embryo | Ready | Running | Done | Failed -> ())

let kill t th = interrupt t th Thread_killed

(* --- timers ------------------------------------------------------------- *)

let at t time fn =
  let tmr = { t_fn = fn; t_cancelled = false } in
  (* Never schedule into the past: the heap would rewind [now_]. *)
  let time = if Time.compare time t.now_ < 0 then t.now_ else time in
  push t ~time (Fire tmr);
  tmr

let cancel_timer _t tmr = tmr.t_cancelled <- true

(* --- engine-closure binding (must follow the operations they close over) *)

let bind_fns t =
  t.handler <- make_handler t;
  t.fn_block <-
    (fun th ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.last_cpu (Event.Block { thread = th.name });
      th.state <- Blocked;
      free_cpu_of t th;
      try_dispatch t);
  t.fn_yield <-
    (fun th ->
      th.state <- Ready;
      free_cpu_of t th;
      ready_push t th;
      try_dispatch t)

let create ?processors ?domains cm =
  let t = create ?processors ?domains cm in
  bind_fns t;
  t
