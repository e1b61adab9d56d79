(* Tests for the wire layer: big-endian primitives, TLS-style
   length-prefixed vectors, sub-readers, and failure modes. *)

module W = Wire.Writer
module R = Wire.Reader

let test_integers () =
  let bytes =
    W.build (fun w ->
        W.u8 w 0xab;
        W.u16 w 0x1234;
        W.u24 w 0x56789a;
        W.u32 w 0xdeadbeef;
        W.u64 w 0x0123456789abcd)
  in
  Alcotest.(check int) "length" (1 + 2 + 3 + 4 + 8) (String.length bytes);
  R.parse bytes (fun r ->
      Alcotest.(check int) "u8" 0xab (R.u8 r);
      Alcotest.(check int) "u16" 0x1234 (R.u16 r);
      Alcotest.(check int) "u24" 0x56789a (R.u24 r);
      Alcotest.(check int) "u32" 0xdeadbeef (R.u32 r);
      Alcotest.(check int) "u64" 0x0123456789abcd (R.u64 r))

let test_big_endian () =
  Alcotest.(check string) "u16 order" "\x12\x34" (W.build (fun w -> W.u16 w 0x1234));
  Alcotest.(check string) "u32 order" "\x00\x00\x01\x00" (W.build (fun w -> W.u32 w 256))

let test_range_checks () =
  let w = W.create () in
  Alcotest.check_raises "u8 too big" (Invalid_argument "Writer.u8: out of range") (fun () ->
      W.u8 w 256);
  Alcotest.check_raises "u16 negative" (Invalid_argument "Writer.u16: out of range") (fun () ->
      W.u16 w (-1));
  Alcotest.check_raises "u64 negative" (Invalid_argument "Writer.u64: negative") (fun () ->
      W.u64 w (-5))

let test_vectors () =
  let bytes =
    W.build (fun w ->
        W.vec8 w "abc";
        W.vec16 w "";
        W.vec24 w "hello world")
  in
  R.parse bytes (fun r ->
      Alcotest.(check string) "vec8" "abc" (R.vec8 r);
      Alcotest.(check string) "vec16 empty" "" (R.vec16 r);
      Alcotest.(check string) "vec24" "hello world" (R.vec24 r))

let test_vector_limits () =
  let w = W.create () in
  Alcotest.check_raises "vec8 overflow" (Invalid_argument "Writer.vec8: too long") (fun () ->
      W.vec8 w (String.make 256 'x'));
  (* 255 is fine. *)
  W.vec8 w (String.make 255 'x');
  Alcotest.(check int) "255 fits" 256 (W.length w)

let test_short_reads () =
  (match R.parse_result "\x01" (fun r -> R.u16 r) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short u16 accepted");
  (match R.parse_result "\x05abc" (fun r -> R.vec8 r) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated vector accepted");
  match R.parse_result "\x01\x02" (fun r -> R.u8 r) with
  | Error _ -> () (* trailing garbage *)
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let test_sub_reader () =
  let bytes = W.build (fun w -> W.bytes w "abcdef") in
  R.parse bytes (fun r ->
      let sub = R.sub r 3 in
      Alcotest.(check string) "sub content" "abc" (R.take_rest sub);
      Alcotest.(check string) "parent continues" "def" (R.take_rest r))

let test_direct_stores () =
  (* The set_* stores produce exactly the streaming writers' encoding. *)
  let streamed =
    W.build (fun w ->
        W.u8 w 0xab;
        W.u16 w 0x1234;
        W.u24 w 0x56789a;
        W.u32 w 0xdeadbeef;
        W.u64 w 0x0123456789abcd)
  in
  let buf = Bytes.create (String.length streamed) in
  W.set_u8 buf 0 0xab;
  W.set_u16 buf 1 0x1234;
  W.set_u24 buf 3 0x56789a;
  W.set_u32 buf 6 0xdeadbeef;
  W.set_u64 buf 10 0x0123456789abcd;
  Alcotest.(check string) "same encoding" streamed (Bytes.to_string buf);
  Alcotest.check_raises "set_u8 too big" (Invalid_argument "Writer.set_u8: out of range")
    (fun () -> W.set_u8 buf 0 256);
  Alcotest.check_raises "set_u64 negative" (Invalid_argument "Writer.set_u64: negative")
    (fun () -> W.set_u64 buf 0 (-1))

let test_writer_clear () =
  let w = W.create () in
  W.u16 w 0xbeef;
  W.clear w;
  W.vec8 w "xy";
  Alcotest.(check string) "only post-clear content" "\x02xy" (W.to_string w)

let prop_vec_roundtrip =
  QCheck2.Test.make ~name:"vector roundtrips" ~count:300
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s ->
      let bytes = W.build (fun w -> W.vec16 w s) in
      R.parse bytes R.vec16 = s)

let prop_int_roundtrip =
  QCheck2.Test.make ~name:"u32 roundtrips" ~count:300
    QCheck2.Gen.(int_range 0 0xffffffff)
    (fun v -> R.parse (W.build (fun w -> W.u32 w v)) R.u32 = v)

let prop_concat_roundtrip =
  QCheck2.Test.make ~name:"mixed sequences roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) (pair (int_range 0 0xffff) (string_size (int_range 0 50))))
    (fun items ->
      let bytes =
        W.build (fun w ->
            List.iter
              (fun (n, s) ->
                W.u16 w n;
                W.vec16 w s)
              items)
      in
      let decoded =
        R.parse bytes (fun r ->
            let rec go acc =
              if R.is_empty r then List.rev acc
              else begin
                let n = R.u16 r in
                let s = R.vec16 r in
                go ((n, s) :: acc)
              end
            in
            go [])
      in
      decoded = items)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "wire"
    [
      ( "writer-reader",
        [
          Alcotest.test_case "integers" `Quick test_integers;
          Alcotest.test_case "big-endian order" `Quick test_big_endian;
          Alcotest.test_case "range checks" `Quick test_range_checks;
          Alcotest.test_case "vectors" `Quick test_vectors;
          Alcotest.test_case "vector limits" `Quick test_vector_limits;
          Alcotest.test_case "short reads" `Quick test_short_reads;
          Alcotest.test_case "sub reader" `Quick test_sub_reader;
          Alcotest.test_case "direct stores" `Quick test_direct_stores;
          Alcotest.test_case "writer clear" `Quick test_writer_clear;
        ] );
      qsuite "properties" [ prop_vec_roundtrip; prop_int_roundtrip; prop_concat_roundtrip ];
    ]
