open Rt

(* The kernel collector for one terminating domain. *)
let collect rt d =
  (* Revoke every Binding Object associated with the domain, as client or
     server; this invalidates active linkage records, so returns through
     them raise call-failed. *)
  Hashtbl.iter
    (fun _ b ->
      if Pdomain.equal b.b_client d || Pdomain.equal b.b_server d then
        Binding.revoke rt b)
    rt.bindings;
  rt.exports <-
    List.filter
      (fun (_, ex) ->
        if Pdomain.equal ex.ex_server d then begin
          ex.ex_revoked <- true;
          false
        end
        else true)
      rt.exports;
  (* Restart visiting threads — callers whose LRPC is being served inside
     the dying domain right now. The unwind exception takes them back
     through the return path, which raises call-failed in their caller. *)
  let e = engine rt in
  List.iter
    (fun other ->
      if not (Pdomain.equal other d) then
        List.iter
          (fun th ->
            if
              Engine.alive th
              && Engine.thread_domain th = d.Pdomain.id
              && Option.is_some (linkstack_top rt th)
            then Engine.interrupt e th Unwind_termination)
          other.Pdomain.threads)
    (Kernel.domains rt.kernel)

(* Keyed registration: a second [Api.init] on the same kernel replaces
   the previous runtime's collector instead of stacking a stale one. *)
let install rt =
  ignore
    (Kernel.on_terminate ~key:"lrpc-collector" rt.kernel (fun d -> collect rt d)
      : Kernel.hook_handle)

let release_captured rt ~captured ~replacement =
  match linkstack_top rt captured with
  | None -> invalid_arg "Termination.release_captured: no outstanding call"
  | Some linkage ->
      let client =
        match linkage.l_return_domain with
        | Some c -> c
        | None -> invalid_arg "Termination.release_captured: linkage has no caller"
      in
      linkage.l_abandoned <- true;
      linkage.l_valid <- false;
      Kernel.spawn rt.kernel client
        ~name:(Printf.sprintf "replacement-of-%s" (Engine.thread_name captured))
        replacement
