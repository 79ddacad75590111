(* Growable float buffer: simulated-time samples and host clock ticks. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let clear t = t.n <- 0
let to_array t = Array.sub t.a 0 t.n

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a
