(* Tests for the binary columnar .udbb storage format: exact round trips
   between the text and binary formats, deterministic encoding, lazy
   per-relation decoding out of the mapping, atomic replacement, and the
   typed rejection of every corruption class a torn or damaged file can
   present. *)

open Pqdb_relational
open Pqdb_urel
module Q = Pqdb_numeric.Rational
module Rng = Pqdb_numeric.Rng
module E = Pqdb_runtime.Pqdb_error

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let q_testable = Alcotest.testable Q.pp Q.equal
let qcheck = QCheck_alcotest.to_alcotest

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqdb_storage_%d_%d" (Unix.getpid ())
         (Hashtbl.hash (Sys.time ())))
  in
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let fixture ?(tuples = 60) seed =
  Pqdb_workload.Gen.uncertain_db (Rng.create ~seed) ~tuples ~clauses:3

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Structural equality of two databases, exact on every layer: names and
   completeness, schemas, representation rows, and the W table's rational
   probabilities. *)
let assert_same_db name a b =
  check (Alcotest.list string_c) (name ^ ": names") (Udb.names a)
    (Udb.names b);
  let wa = Udb.wtable a and wb = Udb.wtable b in
  check int_c (name ^ ": var count") (Wtable.var_count wa)
    (Wtable.var_count wb);
  List.iter
    (fun v ->
      check string_c (name ^ ": var name") (Wtable.name wa v)
        (Wtable.name wb v);
      check int_c (name ^ ": domain") (Wtable.domain_size wa v)
        (Wtable.domain_size wb v);
      for j = 0 to Wtable.domain_size wa v - 1 do
        check q_testable (name ^ ": prob") (Wtable.prob wa v j)
          (Wtable.prob wb v j)
      done)
    (Wtable.vars wa);
  List.iter
    (fun rel ->
      check bool_c
        (name ^ ": complete flag of " ^ rel)
        (Udb.is_complete a rel) (Udb.is_complete b rel);
      let ua = Udb.find a rel and ub = Udb.find b rel in
      check (Alcotest.list string_c)
        (name ^ ": attrs of " ^ rel)
        (Schema.attributes (Urelation.schema ua))
        (Schema.attributes (Urelation.schema ub));
      let row_eq (c1, t1) (c2, t2) =
        Assignment.equal c1 c2 && Tuple.equal t1 t2
      in
      check bool_c
        (name ^ ": rows of " ^ rel)
        true
        (List.equal row_eq (Urelation.rows ua) (Urelation.rows ub)))
    (Udb.names a)

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

(* text save -> text load -> binary save -> binary load -> text save:
   every hop preserves the database exactly, and exact confidences (the
   quantity the whole engine exists to compute) are rational-identical. *)
let roundtrip_prop =
  QCheck.Test.make ~name:"text<->binary round trips are exact" ~count:25
    (QCheck.int_range 0 100_000) (fun seed ->
      with_temp_dir (fun dir ->
          let udb = fixture seed in
          let text1 = Filename.concat dir "t1" in
          let bin1 = Filename.concat dir "b1.udbb" in
          let text2 = Filename.concat dir "t2" in
          let bin2 = Filename.concat dir "b2.udbb" in
          Udb_io.save text1 udb;
          let from_text = Udb_io.load text1 in
          Udb_io.save bin1 from_text;
          let from_bin = Udb_io.load bin1 in
          Udb_io.save text2 from_bin;
          Udb_io.save bin2 (Udb_io.load text2) ;
          assert_same_db "text hop" udb from_text;
          assert_same_db "binary hop" udb from_bin;
          (* Canonical determinism: the same database encodes to the same
             bytes no matter which format it passed through. *)
          check bool_c "canonical binary images identical" true
            (String.equal (read_bytes bin1) (read_bytes bin2));
          let conf u =
            Pqdb.Eval_exact.all_confidences (Udb.wtable u) (Udb.find u "events")
          in
          List.for_all2
            (fun (t, p) (t', p') -> Tuple.equal t t' && Q.equal p p')
            (conf udb) (conf from_bin)))

(* A float column with values needing all 17 digits, negative zero, and an
   integral float (2.0, which must not come back as the integer 2). *)
let float_db () =
  let udb = Udb.create () in
  let floats =
    [ 0.1; -0.0; 1e300; Float.min_float; 4._521_972e-5; 0.12345675; 2.0 ]
  in
  Udb.add_complete udb "F"
    (Relation.of_list
       (Schema.of_list [ "x" ])
       (List.map (fun f -> Tuple.of_list [ Value.Float f ]) floats));
  udb

let float_bits u =
  List.concat_map
    (fun (_, t) ->
      List.filter_map
        (function Value.Float f -> Some (Int64.bits_of_float f) | _ -> None)
        (Tuple.to_list t))
    (Urelation.rows (Udb.find u "F"))

(* Saved as [file] and loaded back, every float keeps its bits: the binary
   format ([.udbb]) stores them verbatim, the text format writes the digits
   that read back as the same float. *)
let float_round_trip file () =
  with_temp_dir (fun dir ->
      let udb = float_db () in
      let path = Filename.concat dir file in
      Udb_io.save path udb;
      check
        (Alcotest.list Alcotest.int64)
        "float bits preserved" (float_bits udb)
        (float_bits (Udb_io.load path)))

(* Strings whose bare text would read back as another value (["1"] as an
   integer, ["true"] as a boolean, [" a"] trimmed, ["1/2"] as a rational)
   keep their type and bytes through a text save, next to the integer 1
   they must not merge with; a W table variable named ["1"] and
   probabilities of 7/10 and exactly 1 load back too. *)
let test_text_strings () =
  with_temp_dir (fun dir ->
      let udb = Udb.create () in
      let values =
        Value.
          [
            Str "1"; Int 1; Str "true"; Str " a"; Str "1/2"; Str "0.5";
            Str "x,y"; Str "plain";
          ]
      in
      Udb.add_complete udb "Q"
        (Relation.of_list
           (Schema.of_list [ "A" ])
           (List.map (fun v -> Tuple.of_list [ v ]) values));
      let w = Udb.wtable udb in
      ignore (Wtable.add_var ~name:"1" w [ Q.of_ints 3 10; Q.of_ints 7 10 ]);
      ignore (Wtable.add_var w [ Q.one ]);
      let path = Filename.concat dir "out" in
      Udb_io.save path udb;
      let back = Udb_io.load path in
      assert_same_db "text save" udb back;
      check int_c "every value kept apart" (List.length values)
        (List.length (Urelation.rows (Udb.find back "Q"))))

(* ------------------------------------------------------------------ *)
(* Lazy decoding and atomic replacement                                *)
(* ------------------------------------------------------------------ *)

let test_lazy_decode () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.udbb" in
      Udb_io.save path (fixture 5);
      let udb = Udb_io.load path in
      check bool_c "events undecoded after load" false
        (Udb.is_decoded udb "events");
      check bool_c "tags undecoded after load" false
        (Udb.is_decoded udb "tags");
      (* Metadata (names, flags) never forces a decode. *)
      check bool_c "tags is complete" true (Udb.is_complete udb "tags");
      check bool_c "still undecoded" false (Udb.is_decoded udb "tags");
      ignore (Udb.find udb "events");
      check bool_c "events decoded on find" true
        (Udb.is_decoded udb "events");
      check bool_c "tags still undecoded" false (Udb.is_decoded udb "tags"))

let test_atomic_overwrite () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "db.udbb" in
      let a = fixture ~tuples:40 1 and b = fixture ~tuples:7 2 in
      Udb_io.save path a;
      (* A reader holding the old mapping keeps reading the old bytes:
         rename replaces the name, not the inode. *)
      let old = Udb_io.load path in
      Udb_io.save path b;
      assert_same_db "old mapping intact" a old;
      assert_same_db "new load sees replacement" b (Udb_io.load path);
      (* No temp droppings either way. *)
      check (Alcotest.list string_c) "no stray files" [ "db.udbb" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))

let test_text_save_atomic () =
  with_temp_dir (fun dir ->
      let text = Filename.concat dir "t" in
      Udb_io.save text (fixture 3);
      Udb_io.save text (fixture ~tuples:9 4);
      assert_same_db "text overwrite" (fixture ~tuples:9 4)
        (Udb_io.load text);
      Array.iter
        (fun f ->
          check bool_c ("no temp file " ^ f) false
            (String.length f > 4 && String.sub f 0 4 = ".tmp"))
        (Sys.readdir text))

(* ------------------------------------------------------------------ *)
(* Corruption corpus                                                   *)
(* ------------------------------------------------------------------ *)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
  Bytes.to_string b

let expect_malformed name ~path thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: corrupt input accepted" name
  | exception E.Error (E.Malformed_input { source; _ }) ->
      check bool_c (name ^ ": error names the file") true
        (String.length source >= String.length path
        && String.sub source 0 (String.length path) = path)
  | exception e ->
      Alcotest.failf "%s: expected Malformed_input, got %s" name
        (Printexc.to_string e)

let test_corrupt_corpus () =
  with_temp_dir (fun dir ->
      let good_path = Filename.concat dir "good.udbb" in
      Udb_io.save good_path (fixture 11);
      let good = read_bytes good_path in
      let case name bytes check_load =
        let path = Filename.concat dir (name ^ ".udbb") in
        write_bytes path bytes;
        check_load path
      in
      (* Truncated header: shorter than the magic. *)
      case "truncated-header" (String.sub good 0 8) (fun p ->
          expect_malformed "truncated header" ~path:p (fun () ->
              Udb_io.load p));
      (* Wrong version: a flipped byte inside the magic string. *)
      case "bad-version" (flip good 10) (fun p ->
          expect_malformed "bad version" ~path:p (fun () -> Udb_io.load p));
      (* Flipped byte in the W-table segment (decoded eagerly): the segment
         CRC fails at load. *)
      case "flipped-wtable" (flip good 18) (fun p ->
          expect_malformed "flipped wtable byte" ~path:p (fun () ->
              Udb_io.load p));
      (* Torn tail: the trailer is gone, as after a crash mid-write of a
         non-atomic copy. *)
      case "torn-tail"
        (String.sub good 0 (String.length good - 5))
        (fun p ->
          expect_malformed "torn tail" ~path:p (fun () -> Udb_io.load p));
      (* Flipped byte in the last column segment: load succeeds (lazy), the
         damaged relation fails typed at first decode, and the undamaged
         relation still reads. *)
      let manifest_off =
        Int64.to_int
          (String.get_int64_le good (String.length good - 24))
      in
      case "flipped-column" (flip good (manifest_off - 2)) (fun p ->
          let udb = Udb_io.load p in
          ignore (Udb.find udb "events");
          expect_malformed "flipped column byte" ~path:p (fun () ->
              Udb.find udb "tags")))

let test_load_faultpoint () =
  with_temp_dir (fun dir ->
      let module FP = Pqdb_runtime.Faultpoint in
      let path = Filename.concat dir "db.udbb" in
      Udb_io.save path (fixture 6);
      FP.reset ();
      FP.arm ~count:1 "udb_binary.load";
      check bool_c "injected load failure" true
        (try
           ignore (Udb_io.load path);
           false
         with E.Error (E.Injected site) -> site = "udb_binary.load");
      ignore (Udb.find (Udb_io.load path) "events");
      FP.reset ())

let () =
  Alcotest.run "storage"
    [
      ( "roundtrip",
        [
          qcheck roundtrip_prop;
          Alcotest.test_case "float bits (binary only)" `Quick
            (float_round_trip "f.udbb");
          Alcotest.test_case "float bits (text)" `Quick (float_round_trip "f");
          Alcotest.test_case "strings keep their type (text)" `Quick
            test_text_strings;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "lazy decode" `Quick test_lazy_decode;
          Alcotest.test_case "atomic overwrite" `Quick test_atomic_overwrite;
          Alcotest.test_case "text save atomic" `Quick test_text_save_atomic;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupt corpus" `Quick test_corrupt_corpus;
          Alcotest.test_case "load fault point" `Quick test_load_faultpoint;
        ] );
    ]
