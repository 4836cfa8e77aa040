module Make (App : Proto.App_intf.APP) = struct
  module E = Engine.Sim.Make (App)

  type t = { bandit : Core.Bandit.t; mutable forks : int }

  (* Large enough that the in-training cache never short-circuits the
     lookahead: every decision during training is a full prediction,
     and every prediction trains the bandit. *)
  let never_hit = 1_000_000

  let train ?lookahead ?(episodes = 3) ?(seed = 1000) ~topology ~scenario () =
    if episodes <= 0 then invalid_arg "Playbook.train: episodes must be positive";
    let t = { bandit = Core.Bandit.create (); forks = 0 } in
    let cfg = Option.value ~default:E.default_lookahead lookahead in
    for episode = 0 to episodes - 1 do
      let eng = E.create ~seed:(seed + episode) ~topology () in
      E.set_lookahead eng ~cache:(t.bandit, never_hit) cfg;
      scenario eng;
      t.forks <- t.forks + (E.stats eng).lookahead_forks
    done;
    t

  let resolver t = Core.Bandit.exploit_resolver t.bandit
  let contexts_learned t = Core.Bandit.contexts t.bandit
  let training_forks t = t.forks
end
