(** Virtual-memory regions and protected byte movement.

    A region is a run of simulated pages backed by real [Bytes.t]. The
    backing is created, zero-filled, on the first data access through
    {!data}: a region whose bytes are never read or written (an E-stack
    whose pages only feed the TLB footprint) costs no host memory beyond
    its record. Mapping
    is what the paper's pairwise-shared A-stacks rely on: the same backing
    bytes are made visible to exactly the client and server of one binding
    (and to nobody else), so argument data written by the client stub is
    physically the data the server procedure reads — copies only happen
    where the protocol says they happen, and tests can observe both the
    sharing and the §3.5 mutation hazard.

    [copy] is the single choke-point for data movement: it performs the
    real blit, charges the simulated per-value/per-byte cost, enforces
    access rights, and reports to an optional audit counter (Table 3). *)

type region = {
  rid : int;
  region_name : string;
  pages : int list;  (** global page identifiers, for TLB footprints *)
  size : int;  (** length of the backing bytes, at least 1 *)
  mutable backing : Bytes.t;
      (** empty until the first access through {!data}; read the region's
          bytes only through {!data} *)
  mutable mapped : Pdomain.id list;
      (** domains with read-write access; kernel-only regions map [] *)
  mutable region_valid : bool;  (** unmapped/reclaimed regions are invalid *)
}

type audit = {
  mutable copy_ops : int;  (** number of distinct copy operations *)
  mutable bytes_copied : int;
  mutable labels : string list;  (** copy-op labels, most recent first *)
}

val data : region -> Bytes.t
(** The region's backing bytes, created zero-filled on first use. No
    access check: callers check rights first (the accessors below do). *)

val audit_create : unit -> audit
val audit_reset : audit -> unit

exception Protection_violation of string

val map_into : region -> Pdomain.t -> unit
val unmap_from : region -> Pdomain.t -> unit

val accessible : region -> Pdomain.t -> bool
(** Kernel-only regions (mapped into no domain) are accessible to the
    kernel alone; [accessible] answers for user domains. *)

val write_bytes :
  ?engine:Lrpc_sim.Engine.t ->
  ?rate:Lrpc_sim.Time.t * Lrpc_sim.Time.t ->
  ?audit:audit ->
  ?label:string ->
  by:Pdomain.t ->
  region ->
  off:int ->
  bytes ->
  unit
(** One copy operation moving the given bytes into the region at [off].
    Charges [per_value + per_byte * length] when [engine] is given — from
    the cost model's LRPC stub rates, or from [rate = (per_value,
    per_byte)] when a baseline RPC system supplies its own — checks that
    [by] has the region mapped, and bumps the audit. *)

val read_bytes :
  ?engine:Lrpc_sim.Engine.t ->
  ?rate:Lrpc_sim.Time.t * Lrpc_sim.Time.t ->
  ?audit:audit ->
  ?label:string ->
  by:Pdomain.t ->
  region ->
  off:int ->
  len:int ->
  bytes
(** One copy operation moving bytes out of the region (e.g. the client
    stub copying results to their final destination — copy F). *)

val peek : by:Pdomain.t -> region -> off:int -> len:int -> bytes
(** Zero-cost direct access to shared memory, as the server procedure
    reading arguments in place off the A-stack. Access is still checked;
    no copy is recorded and no time is charged. *)

val poke : by:Pdomain.t -> region -> off:int -> bytes -> unit
(** Zero-cost direct in-place write (the server placing return values on
    the A-stack, or a misbehaving peer mutating arguments mid-call). *)

val region_to_region :
  ?engine:Lrpc_sim.Engine.t ->
  ?rate:Lrpc_sim.Time.t * Lrpc_sim.Time.t ->
  ?audit:audit ->
  ?label:string ->
  src:region ->
  src_off:int ->
  dst:region ->
  dst_off:int ->
  len:int ->
  unit ->
  unit
(** Kernel-mediated copy between regions (message passing's B and C / D
    copies). No access check: the kernel can reach everything. *)
