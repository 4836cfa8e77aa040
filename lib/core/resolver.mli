(** Resolvers turn a pending {!Choice.site} into a decision.

    A resolver never sees application values — only the site's label,
    arity and feature columns — so resolvers compose freely with any
    protocol. Stateful resolvers (round-robin, bandits, the CrystalBall
    lookahead of [Engine.Lookahead]) close over their own state and may
    learn from {!feedback}. *)

type t = {
  name : string;
  choose : Dsim.Rng.t -> Choice.site -> int;
      (** must return an index in [\[0, site_arity)]. *)
  feedback : site:Choice.site -> chosen:int -> reward:float -> unit;
      (** called by the runtime when the outcome of an earlier decision
          has been observed; no-op for stateless resolvers. *)
}

val make :
  name:string ->
  ?feedback:(site:Choice.site -> chosen:int -> reward:float -> unit) ->
  (Dsim.Rng.t -> Choice.site -> int) ->
  t

val first : t
(** Always picks alternative 0 — the degenerate "the programmer already
    decided" resolver; useful as a baseline and in tests. *)

val random : t
(** Uniform choice — the paper's Choice-Random setup. *)

val round_robin : unit -> t
(** Cycles through alternatives per label; fresh state per call. *)

val forced : (int * int) list -> fallback:t -> t
(** [forced moves ~fallback] answers a site whose occurrence [moves]
    lists with the paired index (clamped to arity), else asks [fallback].
    The engine's lookahead replays an event under it to force a branch. *)

val greedy : feature:string -> ?maximize:bool -> unit -> t
(** Picks the alternative whose [feature] is smallest (or largest when
    [maximize]), at random among ties (all, when the schema lacks it):
    the classic hand-tuned heuristic expressed as a resolver. *)

val weighted : feature:string -> t
(** Samples an alternative with probability proportional to its
    (positive) value of [feature]; uniform when there is none. *)

val by_label : (string * t) list -> default:t -> t
(** Routes each choice to the resolver registered for its label —
    e.g. lookahead for ["join.forward"], a trained bandit for
    ["gossip.peer"] — falling back to [default]. Feedback is routed the
    same way. *)

val epsilon_mix : epsilon:float -> explore:t -> exploit:t -> t
(** With probability [epsilon] asks [explore], otherwise [exploit];
    feedback goes to both. The standard way to keep a frozen policy
    honest in a drifting environment.
    @raise Invalid_argument unless [epsilon] is in [0,1]. *)

val apply : t -> Dsim.Rng.t -> 'a Choice.t -> node:int -> occurrence:int -> 'a * int
(** Resolves a full choice: builds the site, asks the resolver, checks
    the returned index, and returns the selected value with its index.
    @raise Invalid_argument if the resolver answers out of range. *)
