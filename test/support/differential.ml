(* A safety property checked two ways at once: its tracker, and every
   copy of it, also runs the property's full [holds] on each view the
   engine hands it, and counts the checks, the refusals and every
   check where the two verdicts differ. Calls that go to the full
   [holds] directly (the explorer's) are counted apart, in [full]. *)

type counts = {
  mutable checks : int;
  mutable refusals : int;
  mutable mismatches : int;
  mutable full : int;
}

let counts () = { checks = 0; refusals = 0; mismatches = 0; full = 0 }

let reset c =
  c.checks <- 0;
  c.refusals <- 0;
  c.mismatches <- 0;
  c.full <- 0

let checked c (p : _ Core.Property.t) =
  let rec wrap (tr : _ Core.Property.tracker) =
    {
      tr with
      holds =
        (fun view ->
          let verdict = tr.holds view in
          c.checks <- c.checks + 1;
          if not verdict then c.refusals <- c.refusals + 1;
          if verdict <> p.holds view then c.mismatches <- c.mismatches + 1;
          verdict);
      copy = (fun () -> wrap (tr.copy ()));
    }
  in
  {
    p with
    holds =
      (fun view ->
        c.full <- c.full + 1;
        p.holds view);
    track = Option.map (fun start view -> wrap (start view)) p.track;
  }

(* [properties] with the one named [name] checked both ways. *)
let check_named c name properties =
  List.map
    (fun (p : _ Core.Property.t) -> if String.equal p.name name then checked c p else p)
    properties
