(* Tests for the binary codec library: round-trips, size accounting,
   malformed-input handling, and the application codecs built on it. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module C = Wire.Codec

let roundtrip codec v = C.decode codec (C.encode codec v)

let check_roundtrip name codec testable v =
  match roundtrip codec v with
  | Ok v' -> Alcotest.check testable name v v'
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

(* ---------- primitives ---------- *)

let test_int_roundtrips () =
  List.iter
    (fun v -> check_roundtrip "int" C.int Alcotest.int v)
    [ 0; 1; -1; 63; -64; 64; 1000; -1000; max_int; min_int; 0x7FFFFFFF ]

let test_int_compactness () =
  checki "small ints are 1 byte" 1 (C.size C.int 0);
  checki "small negatives too" 1 (C.size C.int (-5));
  checkb "bigger ints grow" true (C.size C.int 1_000_000 > 1);
  checkb "zig-zag beats sign-extension" true (C.size C.int (-3) <= 2)

let test_float_roundtrips () =
  List.iter
    (fun v -> check_roundtrip "float" C.float (Alcotest.float 0.) v)
    [ 0.; 1.5; -3.25; Float.max_float; Float.min_float; infinity; neg_infinity ];
  (match roundtrip C.float Float.nan with
  | Ok v -> checkb "nan survives" true (Float.is_nan v)
  | Error e -> Alcotest.fail e);
  checki "floats are 8 bytes" 8 (C.size C.float 3.14)

let test_bool_string () =
  check_roundtrip "true" C.bool Alcotest.bool true;
  check_roundtrip "false" C.bool Alcotest.bool false;
  check_roundtrip "string" C.string Alcotest.string "hello \x00 world";
  check_roundtrip "empty string" C.string Alcotest.string "";
  check_roundtrip "unit" C.unit Alcotest.unit ()

(* ---------- combinators ---------- *)

let test_containers () =
  check_roundtrip "option some" (C.option C.int) Alcotest.(option int) (Some 42);
  check_roundtrip "option none" (C.option C.int) Alcotest.(option int) None;
  check_roundtrip "list" (C.list C.int) Alcotest.(list int) [ 1; -2; 300 ];
  check_roundtrip "empty list" (C.list C.int) Alcotest.(list int) [];
  check_roundtrip "pair" (C.pair C.int C.string) Alcotest.(pair int string) (7, "x");
  check_roundtrip "nested"
    (C.list (C.pair C.bool (C.option C.string)))
    Alcotest.(list (pair bool (option string)))
    [ (true, Some "a"); (false, None) ]

let test_conv () =
  let set_codec = C.conv (fun s -> List.of_seq (Seq.map Fun.id (List.to_seq s))) Fun.id (C.list C.int) in
  check_roundtrip "conv" set_codec Alcotest.(list int) [ 5; 6 ]

type shape = Circle of float | Square of float

let shape_codec =
  C.tagged
    (function
      | Circle r -> (0, C.encode C.float r)
      | Square s -> (1, C.encode C.float s))
    (fun tag payload ->
      match tag with
      | 0 -> Result.map (fun r -> Circle r) (C.decode C.float payload)
      | 1 -> Result.map (fun s -> Square s) (C.decode C.float payload)
      | t -> Error (Printf.sprintf "unknown shape tag %d" t))

let test_tagged_sum_type () =
  (match roundtrip shape_codec (Circle 2.5) with
  | Ok (Circle r) -> Alcotest.check (Alcotest.float 0.) "circle" 2.5 r
  | Ok (Square _) -> Alcotest.fail "wrong case"
  | Error e -> Alcotest.fail e);
  (match roundtrip shape_codec (Square 4.) with
  | Ok (Square s) -> Alcotest.check (Alcotest.float 0.) "square" 4. s
  | Ok (Circle _) -> Alcotest.fail "wrong case"
  | Error e -> Alcotest.fail e);
  (* An unknown tag decodes to a clean error, not an exception. *)
  let bogus = C.encode (C.pair C.int C.string) (9, "") in
  ignore bogus;
  match C.decode shape_codec "\018\000" with
  | Error e -> checkb "unknown tag reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown tag accepted"

let test_malformed () =
  (match C.decode C.bool "\007" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bool accepted garbage");
  (match C.decode C.int "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "int accepted empty");
  (match C.decode C.string "\255\255" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "string accepted truncated length");
  match C.decode C.bool "\001\000" with
  | Error e -> checkb "trailing bytes reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* Adversarial length prefixes: a count or byte-length far beyond the
   buffer (or negative, via zig-zag) must produce a clean error without
   allocating for the claimed size — a crafted 2-byte message must not
   reserve gigabytes. *)
let test_adversarial_length_prefixes () =
  let reject name codec prefix =
    match C.decode codec prefix with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ " accepted an adversarial length")
  in
  let huge = C.encode C.int 1_000_000_000 in
  let negative = C.encode C.int (-7) in
  List.iter
    (fun (name, prefix) ->
      reject ("string " ^ name) C.string prefix;
      reject ("bytes " ^ name) C.bytes_ prefix;
      reject ("int list " ^ name) (C.list C.int) prefix;
      reject ("int array " ^ name) (C.array C.int) prefix;
      reject ("string list " ^ name) (C.list C.string) prefix)
    [ ("huge", huge); ("negative", negative); ("huge+junk", huge ^ "xyz") ];
  (* A plausible count whose elements then run out must also error. *)
  reject "truncated elements" (C.list C.string) (C.encode C.int 3 ^ C.encode C.string "a")

(* [size] is computed per combinator without encoding, so every
   combinator, every varint width and shaped views are checked. *)
let test_size_matches_encode () =
  let same name codec v =
    checki (name ^ ": size = |encode|") (String.length (C.encode codec v)) (C.size codec v)
  in
  same "pairs" (C.list (C.pair C.string C.float)) [ ("alpha", 1.5); ("", -2.) ];
  same "varint widths" (C.list C.int) [ 0; 63; 64; -64; -65; 8191; 8192; max_int; min_int ];
  same "long string" C.string (String.make 300 'x');
  same "option, array, triple"
    (C.array (C.option (C.triple C.bool C.unit C.bytes_)))
    [| None; Some (true, (), Bytes.of_string "xyz") |];
  same "conv" (C.conv (fun n -> (n, string_of_int n)) fst (C.pair C.int C.string)) 1234;
  let tagged =
    C.tagged
      ~cases:[ (0, C.shape C.int); (1, C.shape (C.list C.string)) ]
      (function `A n -> (0, C.encode C.int n) | `B l -> (1, C.encode (C.list C.string) l))
      (fun tag p ->
        if tag = 0 then Result.map (fun n -> `A n) (C.decode C.int p)
        else Result.map (fun l -> `B l) (C.decode (C.list C.string) p))
  in
  let values = [ `A (-5); `B [ "a"; String.make 200 'b' ] ] in
  same "tagged" (C.list tagged) values;
  let views = C.view_codec (C.shape (C.list tagged)) in
  match C.decode views (C.encode (C.list tagged) values) with
  | Ok view -> same "shaped view" views view
  | Error e -> Alcotest.fail e

(* ---------- application codec ---------- *)

let test_dissem_state_codec () =
  (* Round-trip a state through the engine: run briefly, serialize
     every node's state, decode, compare. *)
  let module App = Apps.Dissem.Default in
  let module E = Engine.Sim.Make (App) in
  let topology =
    Net.Topology.uniform ~n:16 (Net.Linkprop.v ~latency:0.005 ~bandwidth:10_000_000. ~loss:0.)
  in
  let eng = E.create ~seed:4 ~jitter:0. ~topology () in
  E.set_resolver eng Core.Resolver.random;
  for i = 0 to 15 do
    E.spawn eng (Proto.Node_id.of_int i)
  done;
  E.run_for eng 3.;
  List.iter
    (fun (_, st) ->
      match roundtrip App.state_codec st with
      | Ok st' -> checkb "state round-trips" true (App.equal_state st st')
      | Error e -> Alcotest.fail e)
    (E.live_nodes eng);
  (* The seed's full bitmap must dominate an empty peer's encoding. *)
  let size_of id =
    match E.state_of eng (Proto.Node_id.of_int id) with
    | Some st -> C.size App.state_codec st
    | None -> Alcotest.fail "node missing"
  in
  checkb "seed state bigger than fresh peer state" true (size_of 0 > 32)

(* ---------- properties ---------- *)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int round-trips" ~count:500 QCheck.int (fun v ->
      roundtrip C.int v = Ok v)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string round-trips" ~count:200 QCheck.string (fun v ->
      roundtrip C.string v = Ok v)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"int list round-trips" ~count:200
    QCheck.(list int)
    (fun v -> roundtrip (C.list C.int) v = Ok v)

let prop_pair_roundtrip =
  QCheck.Test.make ~name:"pairs round-trip" ~count:200
    QCheck.(pair int (pair string bool))
    (fun v -> roundtrip (C.pair C.int (C.pair C.string C.bool)) v = Ok v)

let prop_size_consistent =
  QCheck.Test.make ~name:"size equals encoded length" ~count:200
    QCheck.(list (pair int string))
    (fun v ->
      let codec = C.list (C.pair C.int C.string) in
      C.size codec v = String.length (C.encode codec v))

let prop_decode_never_raises =
  QCheck.Test.make ~name:"decode totals on arbitrary bytes" ~count:500 QCheck.string
    (fun junk ->
      match C.decode (C.list (C.pair C.int C.float)) junk with
      | Ok _ | Error _ -> true)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "wire"
    [
      ( "primitives",
        [
          Alcotest.test_case "ints" `Quick test_int_roundtrips;
          Alcotest.test_case "int compactness" `Quick test_int_compactness;
          Alcotest.test_case "floats" `Quick test_float_roundtrips;
          Alcotest.test_case "bool/string/unit" `Quick test_bool_string;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "containers" `Quick test_containers;
          Alcotest.test_case "conv" `Quick test_conv;
          Alcotest.test_case "tagged sums" `Quick test_tagged_sum_type;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "adversarial lengths" `Quick test_adversarial_length_prefixes;
          Alcotest.test_case "size" `Quick test_size_matches_encode;
        ] );
      ("apps", [ Alcotest.test_case "dissem state codec" `Quick test_dissem_state_codec ]);
      ( "properties",
        qcheck
          [
            prop_int_roundtrip;
            prop_string_roundtrip;
            prop_list_roundtrip;
            prop_pair_roundtrip;
            prop_size_consistent;
            prop_decode_never_raises;
          ] );
    ]
