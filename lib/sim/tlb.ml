(* Exact LRU in two flat arrays of [capacity] slots: [keys.(i)] is a
   resident packed key, [stamps.(i)] its last use on a clock that every
   touch bumps. Stamps are therefore unique, so the minimum stamp names
   the LRU entry without any ordering structure; a victim's slot is
   reused in place. Capacities are tens of entries, so linear scans
   beat hashing and a touch allocates nothing. *)

let id_bits = 31
let max_id = (1 lsl id_bits) - 1

type t = {
  tagged : bool;
  keys : int array;
  stamps : int array;
  mutable count : int; (* live entries occupy slots [0, count) *)
  mutable clock : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ~capacity ~tagged =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    tagged;
    keys = Array.make capacity 0;
    stamps = Array.make capacity 0;
    count = 0;
    clock = 0;
    misses = 0;
    flushes = 0;
  }

let invalidate t =
  if (not t.tagged) && t.count > 0 then begin
    t.count <- 0;
    t.flushes <- t.flushes + 1
  end

(* An untagged TLB keys by page alone. *)
let key t ~domain ~page =
  if page < 0 || page > max_id then invalid_arg "Tlb: page id out of range";
  if not t.tagged then page
  else if domain < 0 || domain > max_id then
    invalid_arg "Tlb: domain id out of range"
  else (domain lsl id_bits) lor page

(* Top-level (a local closure would allocate) and typed [int] (a
   polymorphic [=] would call the generic compare). *)
let rec find_from (keys : int array) count (k : int) i =
  if i >= count then -1
  else if keys.(i) = k then i
  else find_from keys count k (i + 1)

let find t k = find_from t.keys t.count k 0

let lru_slot t =
  let stamps = t.stamps in
  let best = ref 0 in
  for i = 1 to t.count - 1 do
    if stamps.(i) < stamps.(!best) then best := i
  done;
  !best

let access t ~domain ~page =
  let k = key t ~domain ~page in
  t.clock <- t.clock + 1;
  let i = find t k in
  if i >= 0 then begin
    t.stamps.(i) <- t.clock;
    false
  end
  else begin
    let i =
      if t.count < Array.length t.keys then begin
        let i = t.count in
        t.count <- i + 1;
        i
      end
      else lru_slot t
    in
    t.keys.(i) <- k;
    t.stamps.(i) <- t.clock;
    t.misses <- t.misses + 1;
    true
  end

let resident t ~domain ~page = find t (key t ~domain ~page) >= 0

let miss_count t = t.misses
let flush_count t = t.flushes
