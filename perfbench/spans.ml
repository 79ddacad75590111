(* In-memory spans recorded by the benchmark around its own calls into
   each layer. A span has two clocks: host wall time (seconds since the
   recorder was created) and simulated time (microseconds). Synchronous
   calls made outside the simulation (setup, standalone loops) carry a
   host interval; calls made from inside a simulated thread suspend
   there while other threads run, so a host interval around them would
   count foreign work — they carry the simulated interval only. The
   missing clock is [nan] and is written as [null].

   Independently of spans, the recorder can tick: note the process CPU
   clock at the end of every wrapped call (and wherever [tick] is
   called, e.g. from simulated-time timers). Runs of one seed tick at
   the same points, so their tick intervals pair up one to one. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : int;  (** session or caller id; -1 when the span serves no call *)
  host_t0 : float;
  host_t1 : float;
  sim_t0 : float;
  sim_t1 : float;
}

type t = {
  mutable on : bool;  (** record host spans (setup, loops, run phases) *)
  mutable per_call : bool;  (** also record one simulated span per call *)
  mutable next_id : int;
  mutable current : int;  (** innermost open host span, the default parent *)
  mutable spans : span list;  (** newest first *)
  mutable ticking : bool;
  ticks : Fbuf.t;  (** process CPU seconds at each tick *)
  origin : float;
}

let create () =
  {
    on = false;
    per_call = false;
    next_id = 1;
    current = 0;
    spans = [];
    ticking = false;
    ticks = Fbuf.create ();
    origin = Unix.gettimeofday ();
  }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let sim_now = function
  | Some e -> Time.to_us (Engine.now e)
  | None -> Float.nan

let tick t = if t.ticking then Fbuf.add t.ticks (Sys.time ())

(* Run [f] inside a host span named [name]; the spans [f] opens become
   its children. Ticks when [f] returns. *)
let host t ?engine ?(req = -1) name f =
  let r =
    if not t.on then f ()
    else begin
      let id = fresh t and parent = t.current in
      let s0 = sim_now engine in
      let h0 = Unix.gettimeofday () -. t.origin in
      t.current <- id;
      let finish () =
        t.current <- parent;
        t.spans <-
          {
            id;
            parent;
            name;
            req;
            host_t0 = h0;
            host_t1 = Unix.gettimeofday () -. t.origin;
            sim_t0 = s0;
            sim_t1 = sim_now engine;
          }
          :: t.spans
      in
      Fun.protect ~finally:finish f
    end
  in
  tick t;
  r

(* A span known only on the simulated clock. [id] lets a caller reserve
   an id with [fresh] before the span's children are recorded. *)
let sim t ?id ?parent ~req name ~t0 ~t1 =
  if t.per_call then begin
    let id = match id with Some i -> i | None -> fresh t in
    let parent = Option.value parent ~default:t.current in
    t.spans <-
      {
        id;
        parent;
        name;
        req;
        host_t0 = Float.nan;
        host_t1 = Float.nan;
        sim_t0 = t0;
        sim_t1 = t1;
      }
      :: t.spans
  end

(* Total host seconds in the spans whose id is in [ids] = [from, upto)
   and whose name is in [names]. *)
let host_total t ~ids:(from, upto) names =
  List.fold_left
    (fun acc s ->
      if s.id >= from && s.id < upto && List.mem s.name names then
        acc +. (s.host_t1 -. s.host_t0)
      else acc)
    0.0 t.spans

let count t = List.length t.spans

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.9g" f

(* One JSON object per line, oldest span first. *)
let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"host_start_s\":%s,\"host_end_s\":%s,\"sim_start_us\":%s,\"sim_end_us\":%s}\n"
        s.id s.parent s.name s.req (json_float s.host_t0) (json_float s.host_t1)
        (json_float s.sim_t0) (json_float s.sim_t1))
    (List.rev t.spans);
  close_out oc
