(* Deterministic k-way merge order over the engine's event heaps (a run
   heap and a timer heap per partition).

   Each heap is individually ordered by (time, key); because
   the engine assigns keys from one global order, selecting the heap
   with the smallest (time, key) head and popping from it reproduces
   exactly the pop order of a single heap holding the union. This is
   the property the windowed engine's bit-identical-output guarantee
   rests on, and the one the harness property test exercises against
   randomized event streams. *)

let select (heaps : 'a Heap.t array) =
  let best = ref (-1) in
  let best_time = ref 0 and best_key = ref 0 in
  for i = 0 to Array.length heaps - 1 do
    let h = heaps.(i) in
    if not (Heap.is_empty h) then begin
      let tm = Heap.top_time h and k = Heap.top_key h in
      if !best < 0 || tm < !best_time || (tm = !best_time && k < !best_key)
      then begin
        best := i;
        best_time := tm;
        best_key := k
      end
    end
  done;
  !best

let min_time heaps =
  let best = ref max_int and found = ref false in
  Array.iter
    (fun h ->
      if not (Heap.is_empty h) then begin
        found := true;
        let tm = Heap.top_time h in
        if tm < !best then best := tm
      end)
    heaps;
  if !found then Some !best else None

let window_end ~start ~lookahead ~limit =
  (* Events strictly before the returned bound may execute; clamp so
     nothing past [limit] runs, and never produce an empty window even
     under a degenerate zero lookahead. *)
  let w = start + max lookahead 1 in
  if limit >= max_int - 1 then w else min w (limit + 1)
