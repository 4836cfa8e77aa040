(* Execution steering (§2): a lease service with a premature-expiry
   race hands the lease to two clients at once — unless the CrystalBall
   runtime, watching checkpoints and exploring consequences, vetoes the
   offending grant in flight.

   Run with: dune exec examples/steering_demo.exe *)

module R = Runtime.Crystal.Make (Apps.Lease.Default)
module E = R.E

let () =
  print_endline "Buggy lease service, 120 virtual seconds of traffic.\n";
  let unprotected = Experiments.Steering_exp.run ~seed:5 ~with_runtime:false () in
  Printf.printf "without runtime : %d exclusivity violations over %d grants\n"
    unprotected.Experiments.Steering_exp.violations unprotected.Experiments.Steering_exp.grants;
  let protected_ = Experiments.Steering_exp.run ~seed:5 ~with_runtime:true () in
  Printf.printf "with runtime    : %d violations over %d grants (%d messages vetoed in flight)\n\n"
    protected_.Experiments.Steering_exp.violations protected_.Experiments.Steering_exp.grants
    protected_.Experiments.Steering_exp.filtered;
  (* Show what a veto looks like from the inside: run a short protected
     session and print the first vetoes it installed. *)
  let eng = E.create ~seed:5 ~jitter:0. ~topology:Experiments.Steering_exp.topology () in
  E.set_resolver eng Core.Resolver.random;
  for i = 0 to 3 do
    E.spawn eng (Proto.Node_id.of_int i)
  done;
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.checkpoint_period = 0.1;
      checkpoint_delay = 0.05;
      steer_period = 0.1;
      steer_depth = 2;
      filter_ttl = 0.5;
    }
  in
  let cry =
    R.attach ~config
      ~neighbors:(fun _ -> List.init 4 Proto.Node_id.of_int)
      eng
  in
  R.run_for cry 30.;
  (* Several nodes often predict the same veto; the runtime installs it
     once and ignores repeats until its filter expires. *)
  let install installed (at, v) =
    let live (t0, v0) = v0 = v && Dsim.Vtime.diff at t0 <= config.filter_ttl in
    if List.exists live installed then installed else (at, v) :: installed
  in
  let installed =
    List.fold_left
      (fun installed (at, verdict) ->
        match verdict with
        | R.St.Steer vs -> List.fold_left (fun acc v -> install acc (at, v)) installed vs
        | R.St.No_violation | R.St.Cannot_steer _ -> installed)
      [] (R.verdict_log cry)
  in
  print_endline "steering log (first vetoes installed):";
  List.iteri
    (fun i (at, v) ->
      if i < 5 then
        Format.printf "  [%.3fs] installing %a@." (Dsim.Vtime.to_seconds at) R.St.pp_veto v)
    (List.rev installed);
  print_endline "\nThe protocol code never mentions any of this: properties were";
  print_endline "declared, and the runtime predicted and steered."
