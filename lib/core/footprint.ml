open Rt
module Tlb = Lrpc_sim.Tlb

(* Touch at most [n] leading pages of one segment, adding its misses to
   [misses]. Walks the segment's existing list: nothing is allocated. *)
let rec touch tlb domain n pages misses =
  match pages with
  | page :: rest when n > 0 ->
      let misses = if Tlb.access tlb ~domain ~page then misses + 1 else misses in
      touch tlb domain (n - 1) rest misses
  | _ -> misses

let all = max_int

let call_side rt b astack estack ~data_region =
  let e = engine rt in
  let server_pages = pages_of_domain rt b.b_server in
  let tlb = (Engine.current_cpu e).Engine.tlb in
  let domain = Engine.thread_domain (Engine.self e) in
  let m = touch tlb domain all rt.kernel_call_pages 0 in
  let m = touch tlb domain all b.b_export.ex_stub_pages m in
  let m = touch tlb domain all server_pages.dp_code m in
  let m = touch tlb domain 4 estack.es_region.Vm.pages m in
  let m = touch tlb domain all data_region.Vm.pages m in
  let m = touch tlb domain all b.b_export.ex_pdl_pages m in
  let m = touch tlb domain all astack.a_linkage.l_region.Vm.pages m in
  let m = touch tlb domain all rt.binding_table_pages m in
  Engine.charge_tlb_misses e m

let return_side rt b =
  let e = engine rt in
  let client_pages = pages_of_domain rt b.b_client in
  let tlb = (Engine.current_cpu e).Engine.tlb in
  let domain = Engine.thread_domain (Engine.self e) in
  let m = touch tlb domain all rt.kernel_return_pages 0 in
  let m = touch tlb domain all b.b_client_stub_pages m in
  let m = touch tlb domain all client_pages.dp_code m in
  let m = touch tlb domain all client_pages.dp_stack m in
  Engine.charge_tlb_misses e m
