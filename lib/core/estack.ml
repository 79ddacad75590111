open Rt

let now rt = Engine.now (engine rt)

let fresh_estack rt ~server =
  let region =
    Kernel.alloc_region rt.kernel ~owner:server
      ~name:(Printf.sprintf "%s-estack" server.Pdomain.name)
      ~bytes:rt.config.estack_bytes ~mapped:[ server ]
  in
  { es_region = region; es_assoc = None; es_last_used = now rt }

let reclaim rt ~server ~keep_newer_than =
  let pool = estack_pool rt server in
  let reclaimed = ref 0 in
  List.iter
    (fun es ->
      match es.es_assoc with
      | Some a when Time.compare a.a_last_used keep_newer_than <= 0 ->
          a.a_estack <- None;
          es.es_assoc <- None;
          pool.ep_free <- es :: pool.ep_free;
          incr reclaimed
      | Some _ | None -> ())
    pool.ep_all;
  !reclaimed

let associate rt ~server astack =
  match astack.a_estack with
  | Some es ->
      es.es_last_used <- now rt;
      es
  | None -> (
      let pool = estack_pool rt server in
      match pool.ep_free with
      | es :: rest ->
          pool.ep_free <- rest;
          es.es_assoc <- Some astack;
          astack.a_estack <- Some es;
          es
      | [] ->
          let es =
            match fresh_estack rt ~server with
            | es ->
                (* Only a genuinely fresh E-stack costs kernel allocation
                   time on the call path; recycled ones were paid for
                   already. *)
                pool.ep_all <- es :: pool.ep_all;
                Engine.delay ~category:Lrpc_sim.Category.Kernel_transfer
                  (engine rt) rt.config.estack_alloc_cost;
                es
            | exception Out_of_memory -> (
                (* The server's address space is exhausted: reclaim every
                   association older than now (i.e. all of them) and
                   retry once. *)
                if reclaim rt ~server ~keep_newer_than:(now rt) = 0 then
                  raise Out_of_memory;
                match pool.ep_free with
                | es :: rest ->
                    pool.ep_free <- rest;
                    es
                | [] -> raise Out_of_memory)
          in
          es.es_assoc <- Some astack;
          astack.a_estack <- Some es;
          es)

let preallocate_all rt ~server astacks =
  let pool = estack_pool rt server in
  List.iter
    (fun a ->
      if a.a_estack = None then begin
        let es = fresh_estack rt ~server in
        pool.ep_all <- es :: pool.ep_all;
        es.es_assoc <- Some a;
        a.a_estack <- Some es
      end)
    astacks

let pool_stats rt ~server ~total ~free =
  let pool = estack_pool rt server in
  total := List.length pool.ep_all;
  free := List.length pool.ep_free
