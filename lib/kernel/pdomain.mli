(** Protection domains.

    A domain is an address space plus the resources charged to it: pages,
    threads, and (at higher layers) bindings and stacks. Named [Pdomain]
    to avoid shadowing OCaml's [Domain].

    Termination (paper §5.3) is a two-step affair driven by {!Kernel}:
    the domain is first marked [Terminating] while the collector revokes
    bindings and restarts captured callers, then [Dead] once its threads
    and memory are reclaimed. *)

type id = int

type state = Active | Terminating | Dead

type t = {
  id : id;
  name : string;
  machine : int;  (** machine the domain lives on; 0 is the local node *)
  mutable state : state;
  mutable threads : Lrpc_sim.Engine.thread list;
      (** threads whose home is this domain, newest first
          (kernel-maintained); finished threads are reaped as new ones
          are added, so it may still hold a few that are done *)
  mutable threads_len : int;  (** length of [threads] *)
  mutable threads_reap_at : int;  (** [threads_len] that triggers a reap *)
  mutable pages_allocated : int;
  mutable page_limit : int;  (** address-space budget, in pages *)
}

val make : id:id -> name:string -> machine:int -> page_limit:int -> t
(** An active domain with no threads and no pages allocated. *)

val add_thread : t -> Lrpc_sim.Engine.thread -> unit
(** Record a thread homed in the domain, dropping finished ones. *)

val equal : t -> t -> bool

val is_local : t -> t -> bool
(** Same machine? Cross-machine pairs must go through the network path. *)

val active : t -> bool

val pp : Format.formatter -> t -> unit
