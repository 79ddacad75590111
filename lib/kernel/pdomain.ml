type id = int

type state = Active | Terminating | Dead

type t = {
  id : id;
  name : string;
  machine : int;
  mutable state : state;
  mutable threads : Lrpc_sim.Engine.thread list;
  mutable threads_len : int;
  mutable threads_reap_at : int;
  mutable pages_allocated : int;
  mutable page_limit : int;
}

let reap_floor = 16

let make ~id ~name ~machine ~page_limit =
  {
    id;
    name;
    machine;
    state = Active;
    threads = [];
    threads_len = 0;
    threads_reap_at = reap_floor;
    pages_allocated = 0;
    page_limit;
  }

(* Finished threads are dropped once the list has doubled since the last
   reap: amortised O(1) per spawn, order kept, and the list stays within
   twice the live threads (plus the floor). *)
let add_thread d th =
  d.threads <- th :: d.threads;
  d.threads_len <- d.threads_len + 1;
  if d.threads_len >= d.threads_reap_at then begin
    d.threads <- List.filter Lrpc_sim.Engine.alive d.threads;
    d.threads_len <- List.length d.threads;
    d.threads_reap_at <- max reap_floor (2 * d.threads_len)
  end

let equal a b = a.id = b.id

let is_local a b = a.machine = b.machine

let active t = t.state = Active

let pp ppf t = Format.fprintf ppf "%s#%d" t.name t.id
