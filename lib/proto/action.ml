(** Outputs of a handler invocation. Handlers are pure: they return the
    new node state plus a list of these actions, which the engine then
    performs. Keeping actions as data (no closures) is what allows the
    engine to fork a simulation for lookahead. *)

type 'msg t =
  | Send of { dst : Node_id.t; msg : 'msg }
      (** enqueue a message; delivery time and loss are decided by the
          network emulator *)
  | Set_timer of { id : string; after : float }
      (** (re)arm the named timer to fire [after] seconds from now;
          re-arming supersedes the previous deadline *)
  | Cancel_timer of string
  | Note of string  (** free-form annotation; nothing records it *)

let send ~dst msg = Send { dst; msg }
let set_timer ~id ~after = Set_timer { id; after }
let cancel_timer id = Cancel_timer id
let note fmt = Format.kasprintf (fun s -> Note s) fmt

let pp pp_msg ppf = function
  | Send { dst; msg } -> Format.fprintf ppf "send(%a, %a)" Node_id.pp dst pp_msg msg
  | Set_timer { id; after } -> Format.fprintf ppf "set_timer(%s, %.3fs)" id after
  | Cancel_timer id -> Format.fprintf ppf "cancel_timer(%s)" id
  | Note s -> Format.fprintf ppf "note(%s)" s
