(** The predictive lookahead of paper §3.4 as a {!Core.Resolver.t}.
    It sees the engine only through [predict]: [predict site] is [None]
    while no event is in flight to replay, and otherwise scores each
    alternative [i] of [site] (the engine forks, replays the event with
    [i] forced, runs on and scores the outcome). *)

type t

val create :
  ?cache:Core.Bandit.t * int ->
  max_candidates:int ->
  fallback:Core.Resolver.t ->
  (Core.Choice.site -> (int -> float) option) ->
  t
(** The resolver answers [fallback] when [predict] gives [None], 0 at
    arity 1 (drawing nothing), and otherwise the best-scored of the
    first [max_candidates] alternatives, ties broken by one
    {!Dsim.Rng.pick}. [cache = (bandit, min_pulls)] adds the hybrid
    fast path: once a site's context has absorbed [min_pulls * arity]
    updates the bandit answers without predicting, and every prediction
    trains it with its scores normalised to [\[0, 1\]].
    @raise Invalid_argument unless [max_candidates] and [min_pulls] are
    positive. *)

val resolver : t -> Core.Resolver.t
(** Named ["lookahead/<fallback>"], or ["lookahead+cache/<fallback>"]. *)

val fallback : t -> Core.Resolver.t
(** The [fallback] given to {!create}. *)

val cache_stats : t -> (int * int) option
(** [(hits, misses)] of the cache, when there is one. *)
