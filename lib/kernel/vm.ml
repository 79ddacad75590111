type region = {
  rid : int;
  region_name : string;
  pages : int list;
  size : int;
  mutable backing : Bytes.t;
  mutable mapped : Pdomain.id list;
  mutable region_valid : bool;
}

type audit = {
  mutable copy_ops : int;
  mutable bytes_copied : int;
  mutable labels : string list;
}

let audit_create () = { copy_ops = 0; bytes_copied = 0; labels = [] }

let audit_reset a =
  a.copy_ops <- 0;
  a.bytes_copied <- 0;
  a.labels <- []

exception Protection_violation of string

(* [size >= 1], so an empty backing means "not created yet". *)
let data r =
  if Bytes.length r.backing = 0 then r.backing <- Bytes.make r.size '\000';
  r.backing

let map_into r d =
  if not (List.mem d.Pdomain.id r.mapped) then r.mapped <- d.Pdomain.id :: r.mapped

let unmap_from r d =
  r.mapped <- List.filter (fun id -> id <> d.Pdomain.id) r.mapped

let accessible r d = r.region_valid && List.mem d.Pdomain.id r.mapped

let check r d what =
  if not (accessible r d) then
    raise
      (Protection_violation
         (Printf.sprintf "%s: domain %s has no access to region %s" what
            d.Pdomain.name r.region_name))

let note ?audit ?(label = "copy") ~bytes () =
  match audit with
  | Some a ->
      a.copy_ops <- a.copy_ops + 1;
      a.bytes_copied <- a.bytes_copied + bytes;
      a.labels <- label :: a.labels
  | None -> ()

let charge_copy engine rate label len =
  match engine with
  | None -> ()
  | Some e ->
      if Lrpc_sim.Engine.tracing e then
        Lrpc_sim.Engine.emit e
          (Lrpc_obs.Event.Copy
             { label = Option.value label ~default:"copy"; bytes = len });
      let per_value, per_byte =
        match rate with
        | Some r -> r
        | None ->
            let cm = Lrpc_sim.Engine.cost_model e in
            (cm.Lrpc_sim.Cost_model.per_value, cm.Lrpc_sim.Cost_model.per_byte)
      in
      let cost =
        Lrpc_sim.Time.add per_value
          (Lrpc_sim.Time.scale per_byte (float_of_int len))
      in
      Lrpc_sim.Engine.delay ~category:Lrpc_sim.Category.Copy e cost

let write_bytes ?engine ?rate ?audit ?label ~by r ~off src =
  check r by "write_bytes";
  Bytes.blit src 0 (data r) off (Bytes.length src);
  note ?audit ?label ~bytes:(Bytes.length src) ();
  charge_copy engine rate label (Bytes.length src)

let read_bytes ?engine ?rate ?audit ?label ~by r ~off ~len =
  check r by "read_bytes";
  let out = Bytes.create len in
  Bytes.blit (data r) off out 0 len;
  note ?audit ?label ~bytes:len ();
  charge_copy engine rate label len;
  out

let peek ~by r ~off ~len =
  check r by "peek";
  Bytes.sub (data r) off len

let poke ~by r ~off src =
  check r by "poke";
  Bytes.blit src 0 (data r) off (Bytes.length src)

let region_to_region ?engine ?rate ?audit ?label ~src ~src_off ~dst ~dst_off ~len
    () =
  if not (src.region_valid && dst.region_valid) then
    raise (Protection_violation "region_to_region: invalid region");
  Bytes.blit (data src) src_off (data dst) dst_off len;
  note ?audit ?label ~bytes:len ();
  charge_copy engine rate label len
