(** Learned choice resolution (paper §3.4: "using choices based on
    previous similar scenarios as a fast alternative, and updating the
    choices as more information becomes available").

    A bandit keeps per-(context, arm) reward statistics and balances
    exploration against exploitation. Contexts are derived from a
    choice site by bucketing its feature vector, so decisions learned in
    one situation transfer to similar ones. *)

type algo =
  | Ucb1 of float  (** exploration constant, typically [sqrt 2.] *)
  | Epsilon_greedy of float  (** exploration probability in [0,1] *)

type t

val create : ?algo:algo -> ?feature_buckets:int -> unit -> t
(** [algo] defaults to [Ucb1 (sqrt 2.)]. [feature_buckets] controls how
    coarsely features are quantised into contexts (default 4). *)

val context_key : t -> Choice.site -> string
(** The site's label, then each alternative's feature buckets by name. *)

val select : t -> Dsim.Rng.t -> Choice.site -> int
(** Picks an arm; unplayed arms are tried first (in index order). *)

val update : t -> Choice.site -> arm:int -> reward:float -> unit
(** Records an observed reward for the arm in the site's context. *)

val pulls : t -> Choice.site -> arm:int -> int
(** How many rewards this (context, arm) has absorbed. *)

val mean_reward : t -> Choice.site -> arm:int -> float
(** 0 if never played. *)

val contexts : t -> int
(** Number of distinct contexts seen so far. *)

val context_pulls : t -> Choice.site -> int
(** Total rewards absorbed by the site's context across all arms — a
    cheap "how trained am I here?" measure for hybrid fast paths. *)

val to_resolver : t -> Resolver.t
(** Wraps the bandit as a {!Resolver.t}; its [feedback] feeds
    {!update}. *)

val exploit : t -> Choice.site -> int
(** Pure exploitation: the arm with the best mean reward in the site's
    context; unplayed arms never win, and a context never seen answers
    0. Used to freeze a trained bandit into a deployable policy. *)

val exploit_resolver : t -> Resolver.t
(** {!exploit} as a resolver; feedback is ignored (the policy is
    frozen). *)
