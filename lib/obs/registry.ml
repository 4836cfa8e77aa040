type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  h_stats : Dsim.Stats.t;
  h_hist : Dsim.Stats.Histogram.h;
  h_lo : float;
  h_hi : float;
  h_buckets : int;
}

type value = Counter of counter | Probe of probe | Gauge of gauge | Hist of histogram
and probe = { mutable read : unit -> int }

type metric = {
  m_name : string;
  m_labels : (string * string) list;  (** sorted by key *)
  m_volatile : bool;
  m_value : value;
}

type key = string * (string * string) list

type t = { tbl : (key, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~name ~labels ~volatile mk =
  let labels = canon_labels labels in
  let k = (name, labels) in
  match Hashtbl.find_opt t.tbl k with
  | Some m -> m
  | None ->
      let m = { m_name = name; m_labels = labels; m_volatile = volatile; m_value = mk k } in
      Hashtbl.add t.tbl k m;
      m

let kind_clash name kind =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %s already registered as a different kind than %s" name
       kind)

let counter ?(volatile = false) t ~name ~labels =
  let m = register t ~name ~labels ~volatile (fun _ -> Counter { c = 0 }) in
  match m.m_value with Counter c -> c | _ -> kind_clash name "counter"

let probe t ~name ~labels read =
  let m = register t ~name ~labels ~volatile:false (fun _ -> Probe { read }) in
  match m.m_value with Probe p -> p.read <- read | _ -> kind_clash name "probe counter"

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge ?(volatile = false) t ~name ~labels =
  let m = register t ~name ~labels ~volatile (fun _ -> Gauge { g = 0. }) in
  match m.m_value with Gauge g -> g | _ -> kind_clash name "gauge"

let set g v = g.g <- v
let gauge_value g = g.g

let histogram ?(volatile = false) ?(capacity = 4096) t ~name ~labels ~lo ~hi ~buckets =
  let m =
    register t ~name ~labels ~volatile (fun key ->
        (* Seed the percentile reservoir from the metric key so the same
           series samples identically run over run. *)
        let seed = Hashtbl.hash key in
        Hist
          {
            h_stats = Dsim.Stats.create ~capacity ~seed ();
            h_hist = Dsim.Stats.Histogram.create ~lo ~hi ~buckets;
            h_lo = lo;
            h_hi = hi;
            h_buckets = buckets;
          })
  in
  match m.m_value with Hist h -> h | _ -> kind_clash name "histogram"

let observe h x =
  Dsim.Stats.add h.h_stats x;
  Dsim.Stats.Histogram.add h.h_hist x

let histogram_count h = Dsim.Stats.count h.h_stats

let cardinality t = Hashtbl.length t.tbl

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let metric_json m =
  let base ty rest =
    Json.Obj
      (("type", Json.Str ty)
      :: ("name", Json.Str m.m_name)
      :: ("labels", labels_json m.m_labels)
      :: rest)
  in
  match m.m_value with
  | Counter c -> base "counter" [ ("value", Json.Int c.c) ]
  | Probe p -> base "counter" [ ("value", Json.Int (p.read ())) ]
  | Gauge g -> base "gauge" [ ("value", Json.Float g.g) ]
  | Hist h ->
      let st = h.h_stats in
      let n = Dsim.Stats.count st in
      let stat f = if n = 0 then 0. else f st in
      let q p = if Dsim.Stats.retained st = 0 then 0. else Dsim.Stats.percentile st p in
      let buckets =
        Json.Arr
          (List.init h.h_buckets (fun i ->
               let blo, bhi = Dsim.Stats.Histogram.bucket_bounds h.h_hist i in
               Json.Obj
                 [
                   ("lo", Json.Float blo);
                   ("hi", Json.Float bhi);
                   ("count", Json.Int (Dsim.Stats.Histogram.counts h.h_hist).(i));
                 ]))
      in
      base "histogram"
        [
          ("count", Json.Int n);
          ("sum", Json.Float (Dsim.Stats.sum st));
          ("min", Json.Float (stat Dsim.Stats.min));
          ("max", Json.Float (stat Dsim.Stats.max));
          ("mean", Json.Float (Dsim.Stats.mean st));
          ("p50", Json.Float (q 50.));
          ("p90", Json.Float (q 90.));
          ("p99", Json.Float (q 99.));
          ("underflow", Json.Int (Dsim.Stats.Histogram.underflow h.h_hist));
          ("overflow", Json.Int (Dsim.Stats.Histogram.overflow h.h_hist));
          ("buckets", buckets);
        ]

let sorted_metrics ?(include_volatile = false) t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.filter (fun m -> include_volatile || not m.m_volatile)
  |> List.sort (fun a b ->
         match String.compare a.m_name b.m_name with
         | 0 -> compare a.m_labels b.m_labels
         | c -> c)

let to_json ?include_volatile t =
  List.map metric_json (sorted_metrics ?include_volatile t)

let to_json_lines ?include_volatile t =
  List.map Json.to_string (to_json ?include_volatile t)

let pp ppf t =
  let pp_labels ppf labels =
    if labels <> [] then
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           (fun ppf (k, v) -> Format.fprintf ppf "%s=%s" k v))
        labels
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun m ->
      match m.m_value with
      | Counter c ->
          Format.fprintf ppf "%s%a = %d@," m.m_name pp_labels m.m_labels c.c
      | Probe p -> Format.fprintf ppf "%s%a = %d@," m.m_name pp_labels m.m_labels (p.read ())
      | Gauge g -> Format.fprintf ppf "%s%a = %g@," m.m_name pp_labels m.m_labels g.g
      | Hist h ->
          Format.fprintf ppf "%s%a: %a@," m.m_name pp_labels m.m_labels
            Dsim.Stats.pp_summary h.h_stats)
    (sorted_metrics ~include_volatile:true t);
  Format.fprintf ppf "@]"
