(** Derived conformance suites, generated from the spec table with no
    per-instruction test code: a property suite that sweeps corner
    operands over every row and checks its flag lattice in lockstep
    against the sequential core and the oracle, and an exception suite
    that checks every declared #DE/#GP/#PF trigger is predicted by the
    oracle and delivered through the IDT with the same vector and CR2
    ([optlsim conformance]). *)

module Spec := Ptl_spec.Spec

(** [`Quick] sweeps a boundary subset of the operands, [`Full] all of them. *)
type level = [ `Quick | `Full ]

(** One row's property results. *)
type row_result = {
  rr_key : string;
  rr_cases : int;  (* programs run (cases x presets) *)
  rr_failures : (string * string) list;  (* case/preset, what *)
  rr_vacuous : string list;  (* Written flags that never changed *)
}

(** The property suite's results. *)
type report = {
  p_rows : row_result list;
  p_cases : int;
  p_failures : int;
  p_vacuous : int;
}

(** Run the derived property suite over every row of [table]. *)
val run_properties :
  ?table:Spec.table ->
  ?level:level -> ?progress:(string -> unit) -> unit -> report

(** The exception suite's results. *)
type exc_report = {
  e_cases : int;
  e_failures : (string * string) list;  (* case name, what *)
}

(** Run every derived exception trigger: the oracle must predict the
    row's declared vector (and faulting address for #PF), and seqcore
    delivery through the IDT must land in the matching handler with the
    same CR2. *)
val run_exceptions : ?table:Spec.table -> unit -> exc_report

(** Summary of a property run: totals, then every failure and vacuous claim. *)
val report_to_string : report -> string

(** Summary of an exception run: totals, then every failure. *)
val exc_report_to_string : exc_report -> string

(** Coverage summary: rows against generator mnemonics, missing ones listed. *)
val coverage_to_string : Spec.coverage -> string
