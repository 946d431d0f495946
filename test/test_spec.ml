(** Tests for the declarative ISA spec table (lib/spec) and the
    conformance artifacts derived from it (lib/oracle): coverage of the
    fuzz generator's opcode space, the flag-effect lattice and its
    property suite, the exception-condition suite, and a has-teeth check
    proving that a deliberately mutated spec row fails its own property
    tests (the fuzz-side attribution of the same mutation lives in
    {!Test_fuzz}). *)

module Flags = Ptl_isa.Flags
module Spec = Ptl_spec.Spec
module Conformance = Ptl_oracle.Conformance

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- coverage: every opcode the fuzz generator can emit has a spec
   row, and no row is dead weight outside the generator space --- *)

let test_coverage () =
  let c = Spec.coverage () in
  Alcotest.(check (list string)) "no generator opcode lacks a spec row" []
    c.Spec.missing;
  Alcotest.(check (list string)) "no spec row outside the generator space" []
    c.Spec.extra;
  Alcotest.(check bool) "table is substantial" true
    (List.length c.Spec.covered >= 60)

(* --- flag-lattice spot checks: known rows carry the architecturally
   correct Written/Preserved/Undefined assignments --- *)

let effect_name = function
  | Spec.Written -> "written"
  | Spec.Preserved -> "preserved"
  | Spec.Undefined -> "undefined"

let check_lattice key expected =
  match Spec.find Spec.table key with
  | None -> Alcotest.failf "no spec row for %s" key
  | Some row ->
    List.iter
      (fun (flag, want) ->
        let got = Spec.effect_of row.Spec.lattice flag in
        if got <> want then
          Alcotest.failf "%s/%s: expected %s, got %s" key flag
            (effect_name want) (effect_name got))
      expected

let test_lattice_spot_checks () =
  let w = Spec.Written and p = Spec.Preserved and u = Spec.Undefined in
  check_lattice "add"
    [ ("CF", w); ("PF", w); ("ZF", w); ("SF", w); ("OF", w) ];
  (* INC/DEC famously preserve CF while writing the rest *)
  check_lattice "inc"
    [ ("CF", p); ("PF", w); ("ZF", w); ("SF", w); ("OF", w) ];
  check_lattice "dec" [ ("CF", p); ("ZF", w) ];
  (* logic ops clear CF/OF (written), leave AF undefined — our CC set
     models C/P/Z/S/O, so AND writes all five *)
  check_lattice "and" [ ("CF", w); ("OF", w); ("ZF", w) ];
  (* plain data movement touches nothing *)
  check_lattice "mov"
    [ ("CF", p); ("PF", p); ("ZF", p); ("SF", p); ("OF", p) ];
  check_lattice "lea" [ ("CF", p); ("OF", p) ];
  (* one-operand MUL leaves SF/ZF/PF undefined, writes CF/OF *)
  check_lattice "mul" [ ("CF", w); ("OF", w); ("ZF", u); ("SF", u); ("PF", u) ];
  (* the model preserves flags across DIV (x86 leaves them undefined) *)
  check_lattice "div"
    [ ("CF", p); ("PF", p); ("ZF", p); ("SF", p); ("OF", p) ];
  (* BT writes only CF *)
  check_lattice "bt" [ ("CF", w); ("ZF", p); ("SF", p) ]

(* --- the derived property suite (quick level: boundary operand subset)
   must be green over every row: flag lattice honoured on every probe,
   no divergence from the sequential core, and no vacuous Written claim
   (every Written flag actually toggles in at least one case) --- *)

let test_property_suite_quick () =
  let r = Conformance.run_properties ~level:`Quick () in
  let rows = List.length r.Conformance.p_rows in
  Alcotest.(check bool) "every row exercised" true
    (rows = Hashtbl.length Spec.table);
  Alcotest.(check bool) "a real corpus of programs" true
    (r.Conformance.p_cases > 1000);
  if r.Conformance.p_failures > 0 || r.Conformance.p_vacuous > 0 then
    Alcotest.failf "property suite not green:\n%s"
      (Conformance.report_to_string r)

(* --- the derived exception suite: every declared #DE/#GP/#PF trigger
   must fault with the declared vector in both worlds (oracle
   prediction, IDT delivery through seqcore) and matching CR2 --- *)

let test_exception_suite () =
  let r = Conformance.run_exceptions () in
  Alcotest.(check bool) "a real set of triggers" true
    (r.Conformance.e_cases > 30);
  if r.Conformance.e_failures <> [] then
    Alcotest.failf "exception suite not green:\n%s"
      (Conformance.exc_report_to_string r)

(* --- has-teeth: drop ADD's CF write from a copy of the table; the
   row's own property tests must fail against the real cores while an
   untouched row stays green under the same mutated table --- *)

let test_planted_row_bug_caught () =
  let table = Spec.drop_flag_write ~key:"add" ~mask:Flags.cf_mask Spec.table in
  let r = Conformance.run_properties ~table ~level:`Quick () in
  let failures key =
    match
      List.find_opt (fun rr -> rr.Conformance.rr_key = key) r.Conformance.p_rows
    with
    | Some rr -> rr.Conformance.rr_failures
    | None -> Alcotest.failf "no row %s" key
  in
  Alcotest.(check bool) "mutated add row fails its property tests" true
    (failures "add" <> []);
  Alcotest.(check (list (pair string string)))
    "untouched sub row stays green" [] (failures "sub")

(* --- mutating a missing row is a programming error --- *)

let test_drop_flag_write_unknown_row () =
  match Spec.drop_flag_write ~key:"no-such-op" ~mask:Flags.cf_mask Spec.table with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the row" true (contains msg "no-such-op")

let suite =
  [
    Alcotest.test_case "generator coverage is total" `Quick test_coverage;
    Alcotest.test_case "flag-lattice spot checks" `Quick test_lattice_spot_checks;
    Alcotest.test_case "property suite (quick) green" `Quick
      test_property_suite_quick;
    Alcotest.test_case "exception suite green" `Quick test_exception_suite;
    Alcotest.test_case "planted row bug caught by properties" `Quick
      test_planted_row_bug_caught;
    Alcotest.test_case "drop_flag_write rejects unknown row" `Quick
      test_drop_flag_write_unknown_row;
  ]
