(** TLB page footprints of the LRPC transfer path.

    On an untagged-TLB machine every context switch invalidates the TLB,
    and the pages the path then touches are refilled at 0.9 us apiece —
    about 25% of the Null call (paper §4). These functions touch the
    pages the path visits after each switch, through the current
    processor's TLB in the current thread's domain, and charge the summed
    misses as one [Tlb_miss] delay. The working sets (25 pages after the
    call-side switch, 18 after the return-side one, 43 total for the Null
    call) are derived in DESIGN.md §4 and asserted by tests.

    The touch order below is part of the model: the TLB is an exact LRU,
    so which entries a full TLB evicts depends on it. The segments are
    walked in place, so neither function allocates on a warm path. Both
    must run inside the simulated thread making the call. *)

val call_side :
  Rt.runtime ->
  Rt.binding ->
  Rt.astack ->
  Rt.estack ->
  data_region:Lrpc_kernel.Vm.region ->
  unit
(** Touch, in the server context and in this order: kernel text and
    data, the server's entry stubs and procedure code, the E-stack
    working set (its first 4 pages), the argument data (A-stack or
    out-of-band segment), the PDL, the linkage record and the binding
    table. *)

val return_side : Rt.runtime -> Rt.binding -> unit
(** Touch, back in the client context and in this order: the kernel's
    (shorter) return path, the client stubs, client code and the client
    stack. *)
