(* Tests for rings, bit operations, RNG determinism and table formatting. *)

open Ptl_util

let test_ring_fifo () =
  let r = Ring.create 4 in
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "pop" 1 (Ring.pop r);
  Ring.push r 4;
  Ring.push r 5;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.(check (list int)) "order" [ 2; 3; 4; 5 ] (Ring.to_list r)

let test_ring_wrap () =
  let r = Ring.create 3 in
  for round = 0 to 9 do
    Ring.push r round;
    Alcotest.(check int) "wrapped pop" round (Ring.pop r)
  done;
  Alcotest.(check bool) "empty after" true (Ring.is_empty r)

let test_ring_drop () =
  let r = Ring.create 8 in
  List.iter (Ring.push r) [ 10; 11; 12; 13; 14 ];
  Ring.drop_youngest r 2;
  Alcotest.(check (list int)) "dropped" [ 10; 11; 12 ] (Ring.to_list r);
  Ring.push r 99;
  Alcotest.(check (list int)) "push after drop" [ 10; 11; 12; 99 ] (Ring.to_list r)

let test_bitops () =
  Alcotest.(check int) "log2 1" 0 (Bitops.log2 1);
  Alcotest.(check int) "log2 4096" 12 (Bitops.log2 4096);
  Alcotest.(check bool) "pow2" true (Bitops.is_pow2 64);
  Alcotest.(check bool) "not pow2" false (Bitops.is_pow2 48);
  Alcotest.(check int) "align up" 128 (Bitops.align_up 65 64);
  Alcotest.(check int) "align down" 64 (Bitops.align_down 127 64);
  Alcotest.(check int) "popcount" 3 (Bitops.popcount 0b10101);
  Alcotest.(check int) "bits" 0b101 (Bitops.bits 0b1011010 ~lo:1 ~len:3)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done;
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seed differs" true (Rng.next64 a <> Rng.next64 c)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done

let test_thousands () =
  Alcotest.(check string) "paper style" "1,482,035K" (Tablefmt.thousands 1_482_035_000);
  Alcotest.(check string) "small" "6K" (Tablefmt.thousands 6_118);
  Alcotest.(check string) "zero" "0K" (Tablefmt.thousands 999)

let test_pct_diff () =
  Alcotest.(check string) "positive" "+4.30%" (Tablefmt.pct_diff 100.0 104.3);
  Alcotest.(check string) "negative" "-5.84%" (Tablefmt.pct_diff 100.0 94.16)

let test_table_render () =
  let s =
    Tablefmt.render
      ~headers:[| "Trial"; "Value" |]
      ~aligns:[| Tablefmt.Left; Tablefmt.Right |]
      [ [| "Cycles"; "123" |]; [| "Insns"; "4" |] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 4 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check bool) "aligned" true (String.length l > 0))
    lines

let suite =
  [
    Alcotest.test_case "ring fifo order" `Quick test_ring_fifo;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wrap;
    Alcotest.test_case "ring drop_youngest" `Quick test_ring_drop;
    Alcotest.test_case "bitops" `Quick test_bitops;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "thousands format" `Quick test_thousands;
    Alcotest.test_case "pct diff format" `Quick test_pct_diff;
    Alcotest.test_case "table render" `Quick test_table_render;
  ]
