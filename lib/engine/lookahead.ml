type cache = { bandit : Core.Bandit.t; min_pulls : int; mutable hits : int; mutable misses : int }

type t = { resolver : Core.Resolver.t; fallback : Core.Resolver.t; cache : cache option }

let resolver t = t.resolver
let fallback t = t.fallback
let cache_stats t = Option.map (fun c -> (c.hits, c.misses)) t.cache

let choose ~max_candidates ~fallback cache predict rng (site : Core.Choice.site) =
  match (predict site, cache) with
  | None, _ -> fallback.Core.Resolver.choose rng site
  | Some _, _ when site.site_arity = 1 -> 0
  | Some _, Some c when Core.Bandit.context_pulls c.bandit site >= c.min_pulls * site.site_arity ->
      c.hits <- c.hits + 1;
      Core.Bandit.select c.bandit rng site
  | Some score, _ ->
      Option.iter (fun c -> c.misses <- c.misses + 1) cache;
      let scores = Array.init (min site.site_arity max_candidates) score in
      let best_score = Array.fold_left Float.max neg_infinity scores in
      (* Train the cache with normalised predicted scores so a later
         hit reproduces the lookahead's ranking. *)
      Option.iter
        (fun c ->
          let worst = Array.fold_left Float.min infinity scores in
          let span = Float.max 1e-9 (best_score -. worst) in
          Array.iteri
            (fun i s -> Core.Bandit.update c.bandit site ~arm:i ~reward:((s -. worst) /. span))
            scores)
        cache;
      (* Ties are broken randomly: deterministic index-0 bias would
         make every node steer the same way and unbalance the system. *)
      let eps = 1e-9 *. (1. +. Float.abs best_score) in
      let tied = ref [] in
      for i = Array.length scores - 1 downto 0 do
        if scores.(i) >= best_score -. eps then tied := i :: !tied
      done;
      Dsim.Rng.pick rng !tied

let create ?cache ~max_candidates ~fallback predict =
  if max_candidates <= 0 then invalid_arg "Lookahead.create: max_candidates must be positive";
  let cache =
    Option.map
      (fun (bandit, min_pulls) ->
        if min_pulls <= 0 then invalid_arg "Lookahead.create: min_pulls must be positive";
        { bandit; min_pulls; hits = 0; misses = 0 })
      cache
  in
  let kind = if Option.is_none cache then "lookahead/" else "lookahead+cache/" in
  let resolver = Core.Resolver.make ~name:(kind ^ fallback.Core.Resolver.name) in
  { resolver = resolver (choose ~max_candidates ~fallback cache predict); fallback; cache }
