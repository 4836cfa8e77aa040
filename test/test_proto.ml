(* Unit tests for the state-machine programming model. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let nid = Proto.Node_id.of_int

(* ---------- Node_id ---------- *)

let test_node_id_basics () =
  checki "roundtrip" 5 (Proto.Node_id.to_int (nid 5));
  checkb "equal" true (Proto.Node_id.equal (nid 1) (nid 1));
  checkb "not equal" false (Proto.Node_id.equal (nid 1) (nid 2));
  checkb "ordering" true (Proto.Node_id.compare (nid 1) (nid 2) < 0);
  checks "pp" "n7" (Format.asprintf "%a" Proto.Node_id.pp (nid 7));
  Alcotest.check_raises "negative" (Invalid_argument "Node_id.of_int: negative") (fun () ->
      ignore (nid (-1)))

let test_node_id_collections () =
  let s = Proto.Node_id.Set.of_list [ nid 3; nid 1; nid 3 ] in
  checki "set dedups" 2 (Proto.Node_id.Set.cardinal s);
  let m = Proto.Node_id.Map.(add (nid 1) "a" empty) in
  checkb "map find" true (Proto.Node_id.Map.find_opt (nid 1) m = Some "a")

(* ---------- Action ---------- *)

let test_action_constructors () =
  (match Proto.Action.send ~dst:(nid 2) "m" with
  | Proto.Action.Send { dst; msg } ->
      checki "dst" 2 (Proto.Node_id.to_int dst);
      checks "msg" "m" msg
  | _ -> Alcotest.fail "expected Send");
  (match Proto.Action.set_timer ~id:"t" ~after:1.5 with
  | Proto.Action.Set_timer { id; after } ->
      checks "id" "t" id;
      Alcotest.check (Alcotest.float 0.) "after" 1.5 after
  | _ -> Alcotest.fail "expected Set_timer");
  match Proto.Action.note "x=%d" 3 with
  | Proto.Action.Note s -> checks "formatted" "x=3" s
  | _ -> Alcotest.fail "expected Note"

let test_action_pp () =
  let pp_msg ppf s = Format.fprintf ppf "%s" s in
  checks "send" "send(n2, hello)"
    (Format.asprintf "%a" (Proto.Action.pp pp_msg) (Proto.Action.send ~dst:(nid 2) "hello"));
  checks "cancel" "cancel_timer(t)"
    (Format.asprintf "%a" (Proto.Action.pp pp_msg) (Proto.Action.cancel_timer "t"))

(* ---------- Handler ---------- *)

let test_handler_guards () =
  let h1 =
    Proto.Handler.v ~name:"even"
      ~guard:(fun st ~src:_ m -> st = 0 && m mod 2 = 0)
      (fun _ st ~src:_ _ -> (st, []))
  in
  let h2 = Proto.Handler.v ~name:"always" (fun _ st ~src:_ _ -> (st, [])) in
  let applicable st m = Proto.Handler.applicable [ h1; h2 ] st ~src:(nid 0) m in
  checki "both apply" 2 (List.length (applicable 0 4));
  checki "guard filters" 1 (List.length (applicable 0 3));
  checki "state-dependent" 1 (List.length (applicable 9 4));
  checks "surviving handler" "always" (List.hd (applicable 0 3)).Proto.Handler.name

(* ---------- View ---------- *)

let view nodes inflight : (string, int) Proto.View.t =
  Proto.View.v ~time:Dsim.Vtime.zero
    ~nodes:(List.map (fun (i, s) -> (nid i, s)) nodes)
    ~inflight:(List.map (fun (a, b, m) -> (nid a, nid b, m)) inflight)

let test_view_accessors () =
  let v = view [ (0, "a"); (1, "b") ] [ (0, 1, 42) ] in
  checki "node count" 2 (Proto.View.node_count v);
  checki "inflight" 1 (Proto.View.inflight_count v);
  checkb "find" true (Proto.View.find v (nid 1) = Some "b");
  checkb "find missing" true (Proto.View.find v (nid 9) = None);
  checki "ids" 2 (List.length (Proto.View.ids v))

let test_view_fold () =
  let v = view [ (0, "x"); (1, "yy") ] [] in
  checki "fold lengths" 3 (Proto.View.fold (fun acc _ s -> acc + String.length s) 0 v)

let test_view_restrict () =
  let v = view [ (0, "a"); (1, "b"); (2, "c") ] [ (0, 1, 1); (1, 2, 2) ] in
  let keep = Proto.Node_id.Set.of_list [ nid 0; nid 1 ] in
  let r = Proto.View.restrict v keep in
  checki "nodes restricted" 2 (Proto.View.node_count r);
  checki "inflight restricted" 1 (Proto.View.inflight_count r)

(* ---------- Ctx helpers ---------- *)

let test_ctx_predicted_ms () =
  let net = Net.Netmodel.create () in
  let ctx : Proto.Ctx.t =
    {
      self = nid 0;
      now = Dsim.Vtime.of_seconds 1.;
      rng = Dsim.Rng.create 1;
      net;
      fd = Net.Failure_detector.create ();
      cb = Net.Circuit_breaker.create ();
      pressure = (fun () -> 0.);
      choose = (fun c -> Core.Choice.nth c 0);
    }
  in
  Alcotest.check (Alcotest.float 1e-6) "default when unknown" 50.
    (Proto.Ctx.predicted_ms ctx (nid 1));
  Net.Netmodel.observe_latency net ~src:0 ~dst:1 (Dsim.Vtime.of_seconds 1.) 0.1;
  Net.Netmodel.observe_bandwidth net ~src:0 ~dst:1 (Dsim.Vtime.of_seconds 1.) 1_000_000.;
  checkb "predicted from model" true (Proto.Ctx.predicted_ms ctx (nid 1) > 99.);
  checkb "confidence known" true (Proto.Ctx.link_confidence ctx (nid 1) > 0.9);
  Alcotest.check (Alcotest.float 0.) "confidence unknown" 0. (Proto.Ctx.link_confidence ctx (nid 2))

let test_ctx_choose_dispatches () =
  let ctx : Proto.Ctx.t =
    {
      self = nid 0;
      now = Dsim.Vtime.zero;
      rng = Dsim.Rng.create 1;
      net = Net.Netmodel.create ();
      fd = Net.Failure_detector.create ();
      cb = Net.Circuit_breaker.create ();
      pressure = (fun () -> 0.);
      choose = (fun c -> Core.Choice.nth c (Core.Choice.arity c - 1));
    }
  in
  checks "polymorphic choose" "last"
    (ctx.choose (Core.Choice.of_values ~label:"l" [ "first"; "mid"; "last" ]));
  checki "works at other types" 3 (ctx.choose (Core.Choice.of_values ~label:"l" [ 1; 2; 3 ]))

(* ---------- Durability.Tracked ---------- *)

module Tr = Proto.Durability.Tracked (Int)
module Int_map = Map.Make (Int)

let entry = Wire.Codec.(pair int string)

(* The whole-map diff [Tracked.changes] replaces: every binding of
   [next] that [prev] lacks or binds to a different value, in
   descending key order. *)
let full_diff prev next =
  Int_map.fold
    (fun k v acc -> match Int_map.find_opt k prev with Some v' when v' = v -> acc | _ -> (k, v) :: acc)
    next []

(* Every version of a tracked map built from the empty one by [ops]. An
   op [(key, kind, c)] writes one of eight keys: kind 0 re-adds the
   current value itself (no write is recorded), kind 1 an equal fresh
   copy of it, otherwise one of four values, each of its own length. *)
let versions ops =
  let step t (key, kind, c) =
    let key = key mod 8 in
    let v =
      match (kind mod 3, Int_map.find_opt key t.Tr.map) with
      | 0, Some v -> v
      | 1, Some v -> String.init (String.length v) (String.get v)
      | _ -> String.make (1 + (c mod 4)) (Char.chr (97 + (c mod 4)))
    in
    Tr.add key v t
  in
  List.rev (List.fold_left (fun acc op -> step (List.hd acc) op :: acc) [ Tr.empty entry ] ops)

let prop_tracked_changes_match_full_diff =
  QCheck.Test.make ~name:"tracked changes equal the full diff" ~count:300
    QCheck.(list_of_size Gen.(0 -- 24) (triple small_nat small_nat small_nat))
    (fun ops ->
      let vs = Array.of_list (versions ops) in
      let ok = ref true in
      Array.iteri
        (fun i prev ->
          Array.iteri
            (fun j next ->
              let expect = full_diff prev.Tr.map next.Tr.map in
              (* Along one lineage, and from an unrelated copy of [prev]
                 whose window reaches nothing. *)
              if Tr.changes ~prev ~next <> expect then ok := false;
              if Tr.changes ~prev:(Tr.of_map entry prev.Tr.map) ~next <> expect then ok := false;
              (* A chain within the window is found without the fold. *)
              if i <= j && j - i <= Tr.window_size && Tr.written ~prev ~next = None then ok := false;
              if List.length next.Tr.window > Tr.window_size then ok := false)
            vs)
        vs;
      !ok)

let test_tracked_window_fallback () =
  let chain n = List.init n (fun k -> (k, 2, k)) in
  let within = versions (chain Tr.window_size) and beyond = versions (chain (Tr.window_size + 1)) in
  let first l = List.hd l and last l = List.nth l (List.length l - 1) in
  checkb "a chain the window holds is walked" true
    (Tr.written ~prev:(first within) ~next:(last within) <> None);
  checkb "a longer chain falls back" true
    (Tr.written ~prev:(first beyond) ~next:(last beyond) = None);
  checkb "the fallback still finds every change" true
    (Tr.changes ~prev:(first beyond) ~next:(last beyond)
    = full_diff (first beyond).Tr.map (last beyond).Tr.map);
  let t = last within in
  checkb "re-adding the bound value records nothing" true
    (Tr.add 0 (Int_map.find 0 t.Tr.map) t == t)

(* The snapshot codec against the list encoding it replaces, on every
   version [versions] builds (adds, overwrites, equal-value and
   same-value re-adds). *)
let list_bytes e (t : string Tr.t) = Wire.Codec.(encode (list e)) (Int_map.bindings t.Tr.map)

let prop_tracked_codec_matches_list =
  QCheck.Test.make ~name:"tracked codec encodes like the bindings list" ~count:300
    QCheck.(list_of_size Gen.(0 -- 24) (triple small_nat small_nat small_nat))
    (fun ops ->
      let c = Tr.codec entry in
      List.for_all
        (fun (t : string Tr.t) ->
          let bytes = Wire.Codec.encode c t in
          let folded = Int_map.fold (fun k v n -> n + Wire.Codec.size entry (k, v)) t.Tr.map 0 in
          bytes = list_bytes entry t
          && Wire.Codec.size c t = String.length bytes
          && t.Tr.count = Int_map.cardinal t.Tr.map
          && t.Tr.bytes = folded
          &&
          match Wire.Codec.decode c bytes with
          | Error _ -> false
          | Ok d ->
              Int_map.equal String.equal d.Tr.map t.Tr.map
              && d.Tr.count = t.Tr.count && d.Tr.bytes = t.Tr.bytes && d.Tr.entry == entry)
        (versions ops))

(* A map built with one entry codec and written with another: the
   running totals measure the wrong bytes, so [size] must fold. The
   doubling codec makes a wrongly trusted total visible. *)
let prop_tracked_codec_other_entry =
  let doubled =
    Wire.Codec.(pair int (conv (fun s -> (s, s)) fst (pair string string)))
  in
  QCheck.Test.make ~name:"tracked codec folds for a foreign entry codec" ~count:200
    QCheck.(list_of_size Gen.(0 -- 24) (triple small_nat small_nat small_nat))
    (fun ops ->
      let c = Tr.codec doubled in
      List.for_all
        (fun (t : string Tr.t) ->
          let bytes = Wire.Codec.encode c t in
          bytes = list_bytes doubled t && Wire.Codec.size c t = String.length bytes)
        (versions ops))

let () =
  Alcotest.run "proto"
    [
      ( "node_id",
        [
          Alcotest.test_case "basics" `Quick test_node_id_basics;
          Alcotest.test_case "collections" `Quick test_node_id_collections;
        ] );
      ( "action",
        [
          Alcotest.test_case "constructors" `Quick test_action_constructors;
          Alcotest.test_case "pp" `Quick test_action_pp;
        ] );
      ("handler", [ Alcotest.test_case "guards" `Quick test_handler_guards ]);
      ( "view",
        [
          Alcotest.test_case "accessors" `Quick test_view_accessors;
          Alcotest.test_case "fold" `Quick test_view_fold;
          Alcotest.test_case "restrict" `Quick test_view_restrict;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "predicted_ms" `Quick test_ctx_predicted_ms;
          Alcotest.test_case "choose dispatches" `Quick test_ctx_choose_dispatches;
        ] );
      ( "tracked map",
        Alcotest.test_case "window fallback" `Quick test_tracked_window_fallback
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_tracked_changes_match_full_diff;
               prop_tracked_codec_matches_list;
               prop_tracked_codec_other_entry;
             ] );
    ]
