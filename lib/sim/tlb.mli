(** Translation lookaside buffer model.

    One per simulated processor. Pages are abstract integer identifiers
    handed out by the kernel's virtual-memory layer. The TLB is an exact
    bounded LRU set: {!access} reports whether a touched page missed (the
    caller charges [misses * cost_model.tlb_miss]). An untagged TLB is
    flushed wholesale by [invalidate] on every context switch — the effect
    responsible for ~25% of the Null LRPC's latency (paper §4) — whereas a
    process-tagged TLB (ablation A1) keys entries by (domain, page) and
    survives switches.

    Internally each entry is one int key — the page alone when untagged,
    [(domain, page)] packed when tagged — with a last-use stamp, held in
    flat arrays of [capacity] slots. Every access bumps the stamp clock,
    so the victim of a full TLB (the minimum stamp) is exactly the least
    recently used entry, and a warm access allocates nothing. Because
    stamps record access order, the order in which a footprint touches
    its pages is part of the model. *)

type t

val max_id : int
(** Largest page id, and largest domain id on a tagged TLB, that packs
    into a key ([2{^31} - 1]). *)

val create : capacity:int -> tagged:bool -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val invalidate : t -> unit
(** Flush. A no-op on a tagged TLB (invalidation is what tagging avoids). *)

val access : t -> domain:int -> page:int -> bool
(** Touch [page] in the context of [domain]: [true] on a miss, which
    inserts the page (evicting the LRU entry if full) and counts toward
    {!miss_count}. An untagged TLB ignores [domain].
    @raise Invalid_argument when [page], or [domain] on a tagged TLB, lies
    outside [0, max_id] — such a key would alias another. *)

val resident : t -> domain:int -> page:int -> bool
(** Whether the page is cached, without touching it.
    @raise Invalid_argument as {!access}. *)

val miss_count : t -> int
(** Cumulative misses since creation. *)

val flush_count : t -> int
(** Cumulative invalidations that actually flushed entries. *)
