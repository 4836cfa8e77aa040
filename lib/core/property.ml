type kind = Safety | Liveness

type 'view tracker = {
  touch : int -> unit;
  holds : 'view -> bool;
  copy : unit -> 'view tracker;
}

type 'view t = {
  name : string;
  kind : kind;
  holds : 'view -> bool;
  track : ('view -> 'view tracker) option;
}

let safety ~name ?track holds = { name; kind = Safety; holds; track }
let liveness ~name holds = { name; kind = Liveness; holds; track = None }

let check props view =
  List.filter (fun (p : _ t) -> p.kind = Safety && not (p.holds view)) props

let start (p : _ t) view =
  match p.track with
  | Some start -> start view
  | None ->
      let rec full = { touch = ignore; holds = p.holds; copy = (fun () -> full) } in
      full
