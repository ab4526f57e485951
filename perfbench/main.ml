(* End-to-end benchmark of PyTond: Python data-science programs compiled to
   SQL and run on the bundled engines, plus a SQL dashboard served by
   [Sqldb.Server]. One process runs one workload; perfbench/NOTES.md says
   why each workload exists and which end-to-end metric each layer metric
   should move.

   The program is run as shipped: default configuration, no PYTOND_*
   toggle or global setter touched. Every number is real wall-clock time;
   the end-to-end times of BENCHMARK.json are also scaled by the host's
   measured speed (see "Host speed" below).
   With [--trace 1] the benchmark additionally calls each layer's public
   functions itself and records one span per call; per-layer figures come
   from those spans, end-to-end figures from the untraced work. *)

module Db = Sqldb.Db
module Relation = Sqldb.Relation
module Catalog = Sqldb.Catalog
module Server = Sqldb.Server

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let out_dir = "perfbench/out"
let rev = ref "unknown"

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "analytic|notebook|dashboard");
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1  traced run");
      ("--rev", Arg.Set_string rev, "REV  source revision for the stamp") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

let sf = 0.05
let nproc = Domain.recommended_domain_count ()

(* Set-up is repeated, at least [setup_repeats] times and for at least
   [setup_min_s] seconds, and its median reported, so that one slow set-up
   does not decide [setup_s]. *)
let setup_repeats = 5
let setup_min_s = 2.

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun s x -> s +. log x) 0. xs
      /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Metrics and outcome counters                                       *)
(* ------------------------------------------------------------------ *)

let metrics : (string * (float * string)) list ref = ref []

let metric name unit v =
  metrics := (name, (v, unit)) :: List.remove_assoc name !metrics

let attempted = Atomic.make 0
let failed = Atomic.make 0

(* A wrong answer, an error or a refusal: counted and named. *)
let fail fmt =
  Printf.ksprintf
    (fun s ->
      Atomic.incr failed;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let gc_metrics (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  metric "gc.minor_mb" "MB"
    ((g1.minor_words -. g0.minor_words) *. float_of_int (Sys.word_size / 8)
    /. 1048576.);
  metric "gc.major_collections" "count"
    (float_of_int (g1.major_collections - g0.major_collections))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* Host speed                                                         *)
(* ------------------------------------------------------------------ *)

(* On a shared host the speed of a core drifts by tens of percent over
   seconds to minutes, as other tenants' load comes and goes. So the
   benchmark also times a fixed kernel that uses none of the program's
   code, between requests, about every [calib_period] seconds of work:
   random updates to and scans of an 8 MB integer table, which allocates
   nothing, so the program's heap does not slow it. The end-to-end times of
   BENCHMARK.json are scaled by [reference_s] over the kernel's median time
   during the work and within [calib_margin] seconds of it, that is to a
   host on which the kernel takes [reference_s]. The unscaled figures are
   printed as [wall.*]. *)

let reference_s = 0.0035
let calib_period = 0.025
let calib_margin = 0.1
let calib_table = Array.make (1 lsl 20) 0

(* (midpoint, duration) of every kernel run *)
let calib_samples : (float * float) list ref = ref []
let calib_lock = Mutex.create ()
let last_calib = Domain.DLS.new_key (fun () -> ref neg_infinity)

let calibrate () =
  let t0 = now () in
  let t = calib_table and mask = (1 lsl 20) - 1 in
  let x = ref 1 in
  for i = 0 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land mask in
    t.(j) <- t.(j) + i
  done;
  let s = ref 0 in
  for i = 0 to mask do
    s := !s + t.(i)
  done;
  ignore (Sys.opaque_identity !s);
  let t1 = now () in
  Domain.DLS.get last_calib := t1;
  Mutex.protect calib_lock (fun () ->
      calib_samples := ((t0 +. t1) /. 2., t1 -. t0) :: !calib_samples);
  t1 -. t0

(* Runs the kernel if this domain has not run it for [calib_period]
   seconds; returns the time it took. *)
let maybe_calibrate () =
  if now () -. !(Domain.DLS.get last_calib) >= calib_period then calibrate ()
  else 0.

(* The scale factor for work done from [lo] to [hi], from every kernel run
   so far; the run nearest to the work if none is near enough. *)
let scaler () =
  let a = Array.of_list (Mutex.protect calib_lock (fun () -> !calib_samples)) in
  Array.sort compare a;
  (* first index whose time is >= t *)
  let find t =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let m = (!lo + !hi) / 2 in
      if fst a.(m) < t then lo := m + 1 else hi := m
    done;
    !lo
  in
  fun lo hi ->
    let i = find (lo -. calib_margin) and j = find (hi +. calib_margin) in
    let near =
      if j > i then Array.to_list (Array.sub a i (j - i))
      else
        let m = (lo +. hi) /. 2. in
        if i = Array.length a || (i > 0 && m -. fst a.(i - 1) < fst a.(i) -. m)
        then [ a.(i - 1) ]
        else [ a.(i) ]
    in
    reference_s /. median (List.map snd near)

(* Set-up runs as (start, duration); reported when the run ends. *)
let setups : (float * float) list ref = ref []

let host_metrics () =
  let at = scaler () in
  let ts = !setups in
  metric "setup_s" "s" (median (List.map (fun (t, d) -> d *. at t (t +. d)) ts));
  metric "wall.setup_s" "s" (median (List.map snd ts));
  let c = median (List.map snd !calib_samples) in
  metric "host.calib_ms" "ms" (1000. *. c);
  metric "host.speed" "ratio" (reference_s /. c);
  metric "host.calib_runs" "count" (float_of_int (List.length !calib_samples))

(* ------------------------------------------------------------------ *)
(* Tracing: spans made by the benchmark around public calls           *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    id : int;
    parent : int; (* 0 = root *)
    req : int; (* request id shared by a request's spans, 0 = none *)
    name : string;
    label : string; (* request or query name, on request spans *)
    t0 : float;
    mutable t1 : float;
  }

  let next_id = Atomic.make 1
  let next_req = Atomic.make 1
  let registry_lock = Mutex.create ()
  let buffers : span list ref list ref = ref []

  (* Each domain appends to its own buffer; buffers are merged once, when
     the run ends. *)
  let buffer =
    Domain.DLS.new_key (fun () ->
        let b = ref [] in
        Mutex.protect registry_lock (fun () -> buffers := b :: !buffers);
        b)

  (* (current span, current request) of this domain *)
  let current_key = Domain.DLS.new_key (fun () -> ref (0, 0))
  let current () = fst !(Domain.DLS.get current_key)
  let fresh_req () = Atomic.fetch_and_add next_req 1

  let span ?parent ?req ?(label = "") name f =
    if not !traced then f ()
    else begin
      let cur = Domain.DLS.get current_key in
      let ((pid, preq) as saved) = !cur in
      let parent = Option.value parent ~default:pid in
      let req = Option.value req ~default:preq in
      let s =
        { id = Atomic.fetch_and_add next_id 1; parent; req; name; label;
          t0 = now (); t1 = 0. }
      in
      cur := (s.id, req);
      Fun.protect
        ~finally:(fun () ->
          s.t1 <- now ();
          cur := saved;
          let b = Domain.DLS.get buffer in
          b := s :: !b)
        f
    end

  let all () =
    Mutex.protect registry_lock (fun () -> List.concat_map ( ! ) !buffers)

  (* Self time: the span's duration minus the part of it that its child
     spans cover (children of one span may run on other domains). *)
  let with_self (spans : span list) : (span * float) list =
    let kids = Hashtbl.create 4096 in
    List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) spans;
    List.map
      (fun s ->
        let cs =
          List.sort (fun a b -> compare a.t0 b.t0) (Hashtbl.find_all kids s.id)
        in
        let covered, _ =
          List.fold_left
            (fun (acc, hi) c ->
              let lo = Float.max c.t0 hi and e = Float.min c.t1 s.t1 in
              if e > lo then (acc +. e -. lo, e) else (acc, hi))
            (0., s.t0) cs
        in
        (s, s.t1 -. s.t0 -. covered))
      spans

  let write path (spans : (span * float) list) =
    let oc = open_out path in
    List.iter
      (fun (s, self) ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"label\":%S,\
           \"start\":%.6f,\"end\":%.6f,\"self\":%.6f}\n"
          s.id s.parent s.req s.name s.label s.t0 s.t1 self)
      (List.sort (fun (a, _) (b, _) -> compare a.id b.id) spans);
    close_out oc
end

(* Self times of every span named [name]. *)
let selfs spans name =
  List.filter_map
    (fun ((s : Trace.span), t) -> if s.name = name then Some t else None)
    spans

(* Mean self time per call of a layer, in seconds. *)
let layer_mean spans name =
  match selfs spans name with
  | [] -> 0.
  | ts -> sum ts /. float_of_int (List.length ts)

(* ------------------------------------------------------------------ *)
(* Python programs: analytic and notebook                             *)
(* ------------------------------------------------------------------ *)

type prog = {
  pname : string;
  source : string;
  pdb : Db.t; (* loaded inputs; each pass runs on a fresh snapshot *)
  mutable reference : string list; (* Relation.canonical of the baseline *)
}

let dialect_of = function Db.Compiled -> "hyper" | _ -> "duckdb"

(* [every]: the config runs in every [every]-th round of passes. *)
type config = {
  cname : string;
  backend : Db.backend;
  threads : int;
  every : int;
}

let configs ~parallel =
  let c cname backend threads every = { cname; backend; threads; every } in
  [ c "duck" Db.Vectorized 1 1; c "hyper" Db.Compiled 1 1 ]
  @
  if parallel && nproc > 1 then
    [ c "duck_nproc" Db.Vectorized nproc 3;
      c "hyper_nproc" Db.Compiled nproc 3 ]
  else []

(* The interpreter baseline is the oracle for both engines. It is computed
   once per run, before the timed window, and is not part of set-up. *)
let compute_references progs =
  let (), t =
    timed (fun () ->
        List.iter
          (fun p ->
            let r =
              Trace.span ~label:p.pname "interp" (fun () ->
                  Pytond.run_python ~db:p.pdb ~source:p.source ~fname:"query"
                    ())
            in
            p.reference <- Relation.canonical r)
          progs)
  in
  t

(* Untraced request: exactly [Pytond.run], split at its two public halves
   so that compile time can be reported. *)
let run_request cfg snap p =
  let sql, compile_s =
    timed (fun () ->
        Pytond.compile ~dialect:(dialect_of cfg.backend) ~db:snap
          ~source:p.source ~fname:"query" ())
  in
  (Db.execute ~threads:cfg.threads ~backend:cfg.backend snap sql, compile_s)

let rules_removed = ref 0
let sql_bytes = ref 0

(* Python source to SQL through each compiler layer's public functions,
   one span per layer. *)
let traced_compile ~dialect db source =
  let f =
    Trace.span "frontend" (fun () ->
        let m = Frontend.Parser.parse_module source in
        Frontend.Anf.normalize_func_def (Pytond.find_function m "query"))
  in
  let ctx, ir =
    Trace.span "translate" (fun () ->
        let base = Translate.Context.of_catalog (Db.catalog db) in
        let ctx =
          match Pytond.decorator_of f with
          | Some d -> Translate.Context.of_decorator ~base d
          | None -> base
        in
        (ctx, Translate.Pandas_tr.translate ~ctx f))
  in
  let opt =
    Trace.span "optimizer" (fun () ->
        Pytond.optimize ~db ~level:Pytond.O4 { Pytond.func = f; ctx; ir })
  in
  let sql =
    Trace.span "sqlgen" (fun () -> Pytond.generate_sql ~dialect ~db opt)
  in
  rules_removed :=
    !rules_removed + List.length ir.rules - List.length opt.rules;
  sql_bytes := !sql_bytes + String.length sql;
  sql

(* Traced request: the same pipeline driven layer by layer through each
   layer's public functions, one span per call. *)
let traced_request cfg snap p =
  let sql, compile_s =
    timed (fun () ->
        traced_compile ~dialect:(dialect_of cfg.backend) snap p.source)
  in
  (* Db.execute fingerprints every query first; text it cannot
     fingerprint falls back to the literal plan, as here *)
  (try ignore (Trace.span "sql_shape" (fun () -> Sqldb.Sql_shape.fingerprint sql))
   with _ -> ());
  let cat = Catalog.pin (Db.catalog snap) in
  let bq =
    Trace.span "planner" (fun () ->
        Sqldb.Planner.plan_query cat (Sqldb.Sql_parse.parse sql))
  in
  let rel =
    match cfg.backend with
    | Db.Vectorized ->
      Trace.span "exec_vectorized" (fun () ->
          Sqldb.Exec_vectorized.run_query ~threads:cfg.threads cat bq)
    | _ ->
      Trace.span "exec_compiled" (fun () ->
          Sqldb.Exec_compiled.run_query ~threads:cfg.threads cat bq)
  in
  (rel, compile_s, sql)

(* Warm plan-cache bind of [sql] on a private snapshot: what a repeat of
   the request pays to acquire its plan. Outside any pass. *)
let probe_bind db cfg sql =
  match Sqldb.Sql_shape.fingerprint sql with
  | exception _ -> ()
  | f ->
    let probe = Db.snapshot db in
    let cat = Catalog.pin (Db.catalog probe) in
    let bind () =
      ignore
        (Db.bind_from_plan_cache probe cat ~backend:cfg.backend
           ~threads:cfg.threads ~owner:None ~plan_quota:None f)
    in
    bind ();
    Trace.span "plancache" bind

(* Cache, plan-cache and view counters summed over the databases that
   served the untraced work. *)
let cache_metrics (sts : Db.cache_stats list) =
  let tot f = List.fold_left (fun a s -> a + f s) 0 sts in
  let count name f = metric name "count" (float_of_int (tot f)) in
  let hits = tot (fun s -> s.hits) in
  metric "resultcache.hit_ratio" "ratio"
    (ratio hits (tot (fun s -> s.hits + s.plan_hits + s.misses)));
  count "resultcache.reexec" (fun s -> s.plan_hits);
  count "resultcache.evictions" (fun s -> s.evictions);
  metric "plancache.bind_ratio" "ratio"
    (ratio (tot (fun s -> s.bind_hits))
       (tot (fun s -> s.bind_hits + s.bind_misses + s.guard_trips)));
  count "plancache.guard_trips" (fun s -> s.guard_trips);
  metric "matview.hit_ratio" "ratio"
    (ratio (tot (fun s -> s.view_hits))
       (tot (fun s -> s.view_hits + s.delta_refreshes + s.view_recomputes)));
  count "matview.delta_refreshes" (fun s -> s.delta_refreshes);
  count "matview.recomputes" (fun s -> s.view_recomputes)

type pass = {
  t0 : float; (* start time *)
  t1 : float; (* end time *)
  wall : float; (* s, without the host-speed kernel runs *)
  lats : (float * float) list; (* per request: start, latency in s *)
  compiles : float list; (* per request, s *)
}

let passes : (string * bool, pass list) Hashtbl.t = Hashtbl.create 8

let record cfg ~traced p =
  let k = (cfg.cname, traced) in
  Hashtbl.replace passes k
    (p :: Option.value (Hashtbl.find_opt passes k) ~default:[])

(* Cache counters of the snapshots that served untraced passes. *)
let pass_cache_stats = ref []

let passes_of ?(traced = false) cname =
  Option.value (Hashtbl.find_opt passes (cname, traced)) ~default:[]

(* One pass: every program once, each on a fresh snapshot so result and
   plan caches start cold. Answers are checked after the pass's clock
   stops. *)
let run_pass ~workload ~tr cfg progs =
  let snaps = List.map (fun p -> (p, Db.snapshot p.pdb)) progs in
  let out = ref [] in
  let kernel = ref 0. in
  let t0 = now () in
  (if tr then Trace.span ~label:cfg.cname "pass" else fun f -> f ()) (fun () ->
      List.iter
        (fun (p, snap) ->
          Atomic.incr attempted;
          let r0 = now () in
          let res =
            try
              if tr then
                Trace.span ~req:(Trace.fresh_req ())
                  ~label:(cfg.cname ^ "/" ^ p.pname) "request" (fun () ->
                    let rel, c, sql = traced_request cfg snap p in
                    Ok (rel, c, Some sql))
              else
                let rel, c = run_request cfg snap p in
                Ok (rel, c, None)
            with e -> Error e
          in
          out := (p, res, r0, now () -. r0) :: !out;
          (* traced passes run the kernel too, so that both kinds of pass
             see the same caches *)
          let k =
            if tr then Trace.span "calib" maybe_calibrate else maybe_calibrate ()
          in
          kernel := !kernel +. k)
        snaps);
  let t1 = now () in
  if not tr then
    List.iter
      (fun (_, snap) -> pass_cache_stats := Db.cache_stats snap :: !pass_cache_stats)
      snaps;
  let lats = ref [] and compiles = ref [] in
  List.iter
    (fun (p, res, r0, lat) ->
      match res with
      | Error e ->
        fail "%s %s %s: %s" workload cfg.cname p.pname (Printexc.to_string e)
      | Ok (rel, c, sql) ->
        if Relation.canonical rel <> p.reference then
          fail "%s %s %s: answer differs from the interpreter baseline"
            workload cfg.cname p.pname
        else begin
          lats := (r0, lat) :: !lats;
          compiles := c :: !compiles
        end;
        Option.iter (probe_bind p.pdb cfg) sql)
    !out;
  record cfg ~traced:tr
    { t0; t1; wall = t1 -. t0 -. !kernel; lats = !lats; compiles = !compiles }

(* Run rounds of passes until the window closes; the first round runs
   every config. A config takes part in every [cfg.every]-th round, so the
   slow [nproc] passes do not crowd out the 1-thread passes that the
   end-to-end metrics are made of. In a traced run each config alternates
   an untraced and a traced pass, which gives the tracing overhead. *)
let run_window ~workload ?(extra = fun () -> ()) cfgs progs =
  let deadline = now () +. !seconds in
  let round = ref 0 in
  while !round = 0 || now () < deadline do
    List.iter
      (fun cfg ->
        if !round mod cfg.every = 0 && (!round = 0 || now () < deadline)
        then begin
          run_pass ~workload ~tr:false cfg progs;
          if !traced then run_pass ~workload ~tr:true cfg progs
        end)
      cfgs;
    if !round = 0 || now () < deadline then extra ();
    incr round
  done

(* A request's latency, scaled. *)
let scaled_lat at (r0, l) = l *. at r0 (r0 +. l)

(* Median pass time of config [cname]; if [at] is given, scaled by the
   latency-weighted mean of its requests' scale factors. *)
let median_pass ?traced ?at cname =
  let time p =
    match at with
    | None -> p.wall
    | Some at ->
      let l = sum (List.map snd p.lats) in
      if l > 0. then p.wall *. sum (List.map (scaled_lat at) p.lats) /. l
      else p.wall *. at p.t0 p.t1
  in
  median (List.map time (passes_of ?traced cname))

(* Request latency percentiles, in ms, over [lats] in seconds. *)
let latency_metrics ?(prefix = "") lats =
  metric (prefix ^ "latency.samples") "count" (float_of_int (List.length lats));
  List.iter
    (fun (name, q) -> metric (prefix ^ name) "ms" (1000. *. quantile q lats))
    [ ("latency_p50_ms", 0.5); ("latency_p95_ms", 0.95);
      ("latency_p99_ms", 0.99) ]

(* End-to-end figures over the untraced 1-thread passes of [cfgs]:
   scaled for BENCHMARK.json, unscaled as [wall.*]. Throughput uses each
   config's median pass, so one disturbed pass does not move it. *)
let pass_metrics cfgs progs =
  let one = List.filter (fun c -> c.threads = 1) cfgs in
  let ps = List.concat_map (fun c -> passes_of c.cname) one in
  let n = float_of_int (List.length progs * List.length one) in
  let at = scaler () in
  let rate at = n /. sum (List.map (fun c -> median_pass ?at c.cname) one) in
  metric "req_per_s" "1/s" (rate (Some at));
  metric "wall.req_per_s" "1/s" (rate None);
  let lats = List.concat_map (fun p -> p.lats) ps in
  latency_metrics (List.map (scaled_lat at) lats);
  latency_metrics ~prefix:"wall." (List.map snd lats);
  List.iter
    (fun c -> metric (c.cname ^ "_pass_s") "s" (median_pass c.cname))
    cfgs;
  metric "compile_p50_ms" "ms"
    (1000. *. median (List.concat_map (fun p -> p.compiles) ps))

(* Tracing overhead: traced over untraced median pass time, summed over
   configs, minus one. *)
let overhead_metric cfgs =
  let t = sum (List.map (fun c -> median_pass ~traced:true c.cname) cfgs)
  and u = sum (List.map (fun c -> median_pass c.cname) cfgs) in
  metric "trace.overhead_pct" "%" (100. *. ((t /. u) -. 1.))

let program_layers =
  [ "frontend"; "translate"; "optimizer"; "sqlgen"; "sql_shape"; "planner";
    "exec_vectorized"; "exec_compiled" ]

(* Per-layer figures from the traced passes of [cfgs]. *)
let program_layer_metrics spans ~n_traced_passes =
  List.iter
    (fun l -> metric (l ^ ".s") "s" (layer_mean spans l))
    program_layers;
  metric "plancache.bind_us" "us" (1e6 *. layer_mean spans "plancache");
  let per_pass x = float_of_int x /. float_of_int (max 1 n_traced_passes) in
  metric "optimizer.rules_removed" "count" (per_pass !rules_removed);
  metric "sqlgen.sql_bytes" "bytes" (per_pass !sql_bytes);
  (* Coverage: share of traced pass wall time, less the host-speed kernel's
     runs, that the layers' self times account for; the rest is the
     benchmark's own glue. *)
  let pass_wall = sum (List.map (fun (s, _) -> s.Trace.t1 -. s.Trace.t0)
                         (List.filter (fun (s, _) -> s.Trace.name = "pass") spans)) in
  let layers = sum (List.concat_map (selfs spans) program_layers) in
  metric "trace.coverage" "ratio" (layers /. (pass_wall -. sum (selfs spans "calib")))

(* Per-program execution time (median self time of its exec span) under
   config [cname], keyed by program name. *)
let exec_by_program spans cname =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun ((s : Trace.span), _) -> Hashtbl.replace by_id s.id s) spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.name = "exec_vectorized" || s.name = "exec_compiled" then
        match Hashtbl.find_opt by_id s.parent with
        | Some r -> (
          match String.index_opt r.label '/' with
          | Some i when String.sub r.label 0 i = cname ->
            let q = String.sub r.label (i + 1) (String.length r.label - i - 1) in
            Hashtbl.replace acc q
              (self :: Option.value (Hashtbl.find_opt acc q) ~default:[])
          | _ -> ())
        | None -> ())
    spans;
  Hashtbl.fold (fun q ts l -> (q, median ts) :: l) acc []

let slower_count a b =
  List.length
    (List.filter
       (fun (q, t) ->
         match List.assoc_opt q b with Some t' -> t > t' | None -> false)
       a)

(* Per-layer figures of a traced analytic or notebook run; returns the
   spans with their self times. *)
let program_traced_metrics cfgs =
  let spans = Trace.with_self (Trace.all ()) in
  let n_traced =
    List.length (List.concat_map (fun c -> passes_of ~traced:true c.cname) cfgs)
  in
  program_layer_metrics spans ~n_traced_passes:n_traced;
  overhead_metric cfgs;
  metric "exec_compiled.slower_count" "count"
    (float_of_int
       (slower_count (exec_by_program spans "hyper")
          (exec_by_program spans "duck")));
  spans

(* Server-side layers do not run in the program workloads. *)
let no_server_metrics () =
  metric "server.rejected" "count" 0.;
  metric "server.retries" "count" 0.

(* ------------------------------------------------------------------ *)
(* Workload: analytic                                                 *)
(* ------------------------------------------------------------------ *)

(* Median over repeated runs of [f], which returns the set-up result and
   its per-step times; the last result is kept. *)
let repeated_setup f =
  let last = ref None and times = ref [] in
  let t0 = now () in
  while List.length !times < setup_repeats || now () -. t0 < setup_min_s do
    (* the previous set-up is garbage before the next one starts *)
    last := None;
    Gc.compact ();
    (* a kernel run on each side, within [calib_margin] of it *)
    ignore (calibrate ());
    let t0 = now () in
    let (r, steps), total = timed f in
    ignore (calibrate ());
    last := Some r;
    setups := (t0, total) :: !setups;
    times := steps :: !times
  done;
  metric "setup.repeats" "count" (float_of_int (List.length !times));
  (Option.get !last, !times)

let analytic () =
  let db, steps =
    repeated_setup (fun () ->
        let tables, g =
          timed (fun () ->
              Trace.span "dbgen" (fun () -> Tpch.Dbgen.generate ~seed:!seed sf))
        in
        let db = Db.create () in
        let (), l =
          timed (fun () ->
              Trace.span "catalog.load" (fun () -> Tpch.Dbgen.load db tables))
        in
        (db, (g, l)))
  in
  metric "dbgen.s" "s" (median (List.map fst steps));
  metric "catalog.load_s" "s" (median (List.map snd steps));
  let progs =
    List.map
      (fun (pname, source) -> { pname; source; pdb = db; reference = [] })
      Tpch.Queries.all
  in
  metric "interp.pass_s" "s" (compute_references progs);
  let cfgs = configs ~parallel:true in
  let g0 = Gc.quick_stat () in
  run_window ~workload:"analytic" cfgs progs;
  gc_metrics g0;
  pass_metrics cfgs progs;
  if nproc = 1 then begin
    (* no second core: the nproc metrics are the 1-thread run *)
    metric "duck_nproc_pass_s" "s" (median_pass "duck");
    metric "hyper_nproc_pass_s" "s" (median_pass "hyper");
    print_endline "note: 1 core, *_nproc metrics equal the 1-thread run"
  end;
  cache_metrics !pass_cache_stats;
  no_server_metrics ();
  if !traced then begin
    let spans = program_traced_metrics cfgs in
    let per c = exec_by_program spans c in
    List.iter
      (fun (q, t) -> metric (Printf.sprintf "exec_vectorized.%s_s" q) "s" t)
      (per "duck");
    List.iter
      (fun (q, t) -> metric (Printf.sprintf "exec_compiled.%s_s" q) "s" t)
      (per "hyper");
    if nproc > 1 then
      List.iter
        (fun (eng, one, many) ->
          let one = per one and many = per many in
          let speedups =
            List.filter_map
              (fun (q, t1) ->
                Option.map (fun tn -> t1 /. tn) (List.assoc_opt q many))
              one
          in
          metric ("parallel.speedup." ^ eng) "ratio" (geomean speedups);
          metric ("parallel.slower_count." ^ eng) "count"
            (float_of_int (slower_count many one)))
        [ ("duck", "duck", "duck_nproc"); ("hyper", "hyper", "hyper_nproc") ];
    Some spans
  end
  else None

(* ------------------------------------------------------------------ *)
(* Workload: notebook                                                 *)
(* ------------------------------------------------------------------ *)

(* The loaders of lib/workloads use fixed RNG seeds, so the seed does not
   reach these inputs (see NOTES.md). *)
let notebook () =
  let progs, _ =
    repeated_setup (fun () ->
        ( List.map
            (fun (pname, load, source) ->
              let pdb = Db.create () in
              Trace.span ~label:pname "catalog.load" (fun () -> load pdb);
              { pname; source; pdb; reference = [] })
            Workloads.all,
          () ))
  in
  ignore (compute_references progs);
  let interp = ref [] in
  let interp_pass () =
    let (), t =
      timed (fun () ->
          List.iter
            (fun p ->
              ignore
                (Trace.span ~label:p.pname "interp" (fun () ->
                     Pytond.run_python ~db:p.pdb ~source:p.source
                       ~fname:"query" ())))
            progs)
    in
    interp := t :: !interp
  in
  let cfgs = configs ~parallel:false in
  let g0 = Gc.quick_stat () in
  run_window ~workload:"notebook" ~extra:interp_pass cfgs progs;
  gc_metrics g0;
  pass_metrics cfgs progs;
  metric "interp.pass_s" "s" (median !interp);
  cache_metrics !pass_cache_stats;
  no_server_metrics ();
  if !traced then Some (program_traced_metrics cfgs) else None

(* ------------------------------------------------------------------ *)
(* Workload: dashboard                                                *)
(* ------------------------------------------------------------------ *)

(* Four parameterized shapes. Constants come from small domains (96
   distinct queries against a 64-entry result cache), so some requests
   repeat and hit the result cache while most bind a cached plan. *)
let shapes : (string * string array) list =
  let dates1 =
    Array.init 16 (fun i ->
        Printf.sprintf
          "SELECT l_returnflag, l_linestatus, SUM(l_extendedprice) AS revenue, \
           COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1998-%02d-%02d' \
           GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, \
           l_linestatus"
          (6 + (i / 4)) (1 + (7 * (i mod 4))))
  in
  let quarters =
    Array.init 24 (fun i ->
        let y = 1992 + (i / 4) and q = i mod 4 in
        let y2, m2 = if q = 3 then (y + 1, 1) else (y, (3 * (q + 1)) + 1) in
        Printf.sprintf
          "SELECT o_orderpriority, COUNT(*) AS n FROM orders WHERE \
           o_orderdate >= DATE '%d-%02d-01' AND o_orderdate < DATE \
           '%d-%02d-01' GROUP BY o_orderpriority ORDER BY o_orderpriority"
          y ((3 * q) + 1) y2 m2)
  in
  let segments =
    Array.init 32 (fun i ->
        Printf.sprintf
          "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total FROM \
           customer JOIN orders ON c_custkey = o_custkey WHERE o_totalprice > \
           %d.0 GROUP BY c_mktsegment ORDER BY c_mktsegment"
          (50_000 + (10_000 * i)))
  in
  let discounts =
    Array.init 24 (fun i ->
        let d = 2 + (i mod 6) and q = 22 + (2 * (i / 6)) in
        Printf.sprintf
          "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
           WHERE l_discount BETWEEN 0.0%d AND 0.0%d AND l_quantity < %d.0"
          d (d + 2) q)
  in
  [ ("flags", dates1); ("priorities", quarters); ("segments", segments);
    ("discount", discounts) ]

(* A request as it reaches a server worker: the span that submitted it is
   the parent of the worker's span. *)
type dreq = { rid : int; sql : string; parent : int }

type response = {
  shape : string;
  rsql : string;
  version : int option; (* catalog version it ran at, if unambiguous *)
  rel : Relation.t;
}

let append_every = 50

(* Catalog versions whose snapshot is kept for the oracle: the first few
   appends and then every eighth, at most [max_retained] of them. Each
   kept version pins a full copy of lineitem. *)
let max_retained = 4

let dashboard () =
  let view_sql = ref "" in
  let db, steps =
    repeated_setup (fun () ->
        let tables, g =
          timed (fun () ->
              Trace.span "dbgen" (fun () -> Tpch.Dbgen.generate ~seed:!seed sf))
        in
        let db = Db.create () in
        let (), l =
          timed (fun () ->
              Trace.span "catalog.load" (fun () -> Tpch.Dbgen.load db tables))
        in
        let sql =
          if !traced then
            traced_compile ~dialect:"hyper" db (Tpch.Queries.find "q1")
          else
            Pytond.compile ~dialect:"hyper" ~db
              ~source:(Tpch.Queries.find "q1") ~fname:"query" ()
        in
        (match
           Trace.span "matview.register" (fun () ->
               Db.register_view db ~name:"q1" sql)
         with
        | Ok () -> ()
        | Error e -> failwith ("register q1 view: " ^ e));
        view_sql := sql;
        (db, (g, l)))
  in
  metric "dbgen.s" "s" (median (List.map fst steps));
  metric "catalog.load_s" "s" (median (List.map snd steps));
  let view_sql = !view_sql in
  let li = Catalog.relation (Db.catalog db) "lineitem" in
  let li_rows = Relation.n_rows li in
  let batch_rows = max 1 (li_rows / 1000) in
  let max_key =
    let k = Relation.column li "l_orderkey" in
    let m = ref 0 in
    for i = 0 to li_rows - 1 do
      m := max !m (Sqldb.Column.int_at k i)
    done;
    !m
  in
  let next_key = ref max_key in
  (* A 0.1% batch of existing rows under fresh order keys, so the primary
     key stays unique. *)
  let make_batch rng =
    let r = Relation.take li (Array.init batch_rows (fun _ -> Random.State.int rng li_rows)) in
    let keys =
      Array.init batch_rows (fun i ->
          if i = 0 || i mod 4 = 0 then incr next_key;
          !next_key)
    in
    Relation.create r.Relation.names
      (Array.mapi
         (fun i c ->
           if r.Relation.names.(i) = "l_orderkey" then Sqldb.Column.of_ints keys
           else c)
         r.Relation.cols)
  in
  let exec ~(tenant : Sqldb.Tenant.t) ~fallback (r : dreq) =
    let policy = tenant.Sqldb.Tenant.policy in
    let backend = if fallback then Db.Vectorized else Db.Compiled in
    let cat = Db.catalog db in
    let v0 = Catalog.version cat in
    let rel =
      Trace.span ~parent:r.parent ~req:r.rid "db.execute" (fun () ->
          Db.execute ~threads:1 ~backend
            ?timeout_ms:policy.Sqldb.Tenant.timeout_ms
            ?row_budget:policy.Sqldb.Tenant.row_budget
            ~owner:tenant.Sqldb.Tenant.name
            ?cache_quota:policy.Sqldb.Tenant.cache_quota
            ?plan_quota:(Sqldb.Tenant.effective_plan_quota policy)
            db r.sql)
    in
    (rel, if Catalog.version cat = v0 then Some v0 else None)
  in
  let retained = Hashtbl.create 8 in
  let retain () =
    Hashtbl.replace retained (Catalog.version (Db.catalog db)) (Db.snapshot db)
  in
  retain ();
  let base_version = Catalog.version (Db.catalog db) in
  let server = Server.create ~workers:2 ~exec () in
  let g0 = Gc.quick_stat () in
  let t_start = now () in
  let deadline = t_start +. !seconds in
  let client cid () =
    let rng = Random.State.make [| !seed; cid |] in
    let tenant = Printf.sprintf "tenant%d" cid in
    let lats = ref [] and waits = ref [] and appends = ref [] in
    let responses = ref [] in
    let n = ref 0 and n_appends = ref 0 in
    (* Requests go in stretches of [calib_period] seconds between runs of
       the host-speed kernel; [busy] holds each stretch as (start, end). *)
    let busy = ref [] in
    ignore (calibrate ());
    while now () < deadline do
      let b0 = now () in
      while now () < deadline && now () -. b0 < calib_period do
        incr n;
        Atomic.incr attempted;
        if cid = 0 && !n mod append_every = 0 then begin
          let batch = make_batch rng in
          match
            timed (fun () ->
                Trace.span ~req:(Trace.fresh_req ()) ~label:"append" "catalog"
                  (fun () -> Db.append_table db "lineitem" batch))
          with
          | (), t ->
            appends := t :: !appends;
            incr n_appends;
            if
              Hashtbl.length retained < max_retained
              && (!n_appends <= 2 || !n_appends mod 8 = 0)
            then retain ()
          | exception e -> fail "dashboard append: %s" (Printexc.to_string e)
        end
        else begin
          let shape, sql =
            if Random.State.int rng 5 = 0 then ("q1_view", view_sql)
            else
              let name, domain =
                List.nth shapes (Random.State.int rng (List.length shapes))
              in
              (name, domain.(Random.State.int rng (Array.length domain)))
          in
          let rid = Trace.fresh_req () in
          let r0 = now () in
          let res, lat =
            timed (fun () ->
                Trace.span ~req:rid ~label:shape "request" (fun () ->
                    Trace.span "server" (fun () ->
                        Server.submit server ~tenant
                          { rid; sql; parent = Trace.current () })))
          in
          match res with
          | Ok o ->
            let rel, version = o.Server.value in
            lats := (r0, lat) :: !lats;
            waits := o.Server.queued_ms :: !waits;
            responses := { shape; rsql = sql; version; rel } :: !responses
          | Error e -> fail "dashboard %s: %s" shape (Printexc.to_string e)
        end
      done;
      let b1 = now () in
      busy := (b0, b1) :: !busy;
      ignore (calibrate ())
    done;
    (!lats, !waits, !appends, !responses, !busy)
  in
  let clients = List.init 2 (fun cid -> Domain.spawn (client cid)) in
  let results = List.map Domain.join clients in
  Server.stop server;
  gc_metrics g0;
  host_metrics ();
  retain ();
  let lats = List.concat_map (fun (l, _, _, _, _) -> l) results in
  let waits = List.concat_map (fun (_, w, _, _, _) -> w) results in
  let appends = List.concat_map (fun (_, _, a, _, _) -> a) results in
  let responses = List.concat_map (fun (_, _, _, r, _) -> r) results in
  (* each client's reads over its time spent on requests, summed over
     clients *)
  let at = scaler () in
  let rate scale =
    sum
      (List.map
         (fun (l, _, _, _, busy) ->
           float_of_int (List.length l)
           /. sum (List.map (fun (b0, b1) -> (b1 -. b0) *. scale b0 b1) busy))
         results)
  in
  metric "req_per_s" "1/s" (rate at);
  metric "wall.req_per_s" "1/s" (rate (fun _ _ -> 1.));
  latency_metrics (List.map (scaled_lat at) lats);
  latency_metrics ~prefix:"wall." (List.map snd lats);
  metric "append_p50_ms" "ms" (1000. *. median appends);
  metric "server.queue_wait_p50_ms" "ms" (median waits);
  metric "server.queue_wait_p99_ms" "ms" (quantile 0.99 waits);
  let st = Server.stats server in
  metric "server.rejected" "count" (float_of_int st.Server.rejected);
  metric "server.retries" "count"
    (float_of_int
       (List.fold_left
          (fun a (_, (t : Sqldb.Tenant.stats)) -> a + t.Sqldb.Tenant.s_retries)
          0 st.Server.tenants));
  cache_metrics [ Db.cache_stats db ];
  (* Oracle, outside the timed window: each response against cold
     executions of its SQL, on both engines, on a snapshot of the catalog
     version it ran at. Appends touch only lineitem, so a query that does
     not scan lineitem has the same answer at every version and is checked
     on the first snapshot; the others are checked when their version was
     kept. *)
  let base = Hashtbl.find retained base_version in
  let reads_lineitem = Hashtbl.create 128 in
  let scans_lineitem sql =
    match Hashtbl.find_opt reads_lineitem sql with
    | Some b -> b
    | None ->
      let b = List.mem "lineitem" (Sqldb.Plan.bound_tables (Db.plan base sql)) in
      Hashtbl.replace reads_lineitem sql b;
      b
  in
  let groups = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let at =
        match r.version with
        | Some v when Hashtbl.mem retained v -> Some v
        | _ when not (scans_lineitem r.rsql) -> Some base_version
        | _ -> None
      in
      Option.iter
        (fun v ->
          Hashtbl.replace groups (v, r.rsql)
            (r :: Option.value (Hashtbl.find_opt groups (v, r.rsql)) ~default:[]))
        at)
    responses;
  let checked = ref 0 and compiled_slower = ref 0 in
  Hashtbl.iter
    (fun (v, sql) rs ->
      let snap = Db.snapshot (Hashtbl.find retained v) in
      let cat = Catalog.pin (Db.catalog snap) in
      let cold name run =
        let bq = Db.plan snap sql in
        timed (fun () ->
            Relation.canonical (Trace.span name (fun () -> run cat bq)))
      in
      let comp, tc =
        cold "exec_compiled" (fun cat bq ->
            Sqldb.Exec_compiled.run_query ~threads:1 cat bq)
      in
      let vect, tv =
        cold "exec_vectorized" (fun cat bq ->
            Sqldb.Exec_vectorized.run_query ~threads:1 cat bq)
      in
      if tc > tv then incr compiled_slower;
      let shape = (List.hd rs).shape in
      if comp <> vect then
        fail "dashboard %s @v%d: compiled and vectorized cold runs differ" shape v;
      List.iter
        (fun r ->
          incr checked;
          if Relation.canonical r.rel <> comp then
            fail "dashboard %s @v%d: response differs from a cold execution"
              shape v)
        rs)
    groups;
  Printf.printf "dashboard oracle: %d of %d responses checked at %d kept versions\n"
    !checked (List.length responses) (Hashtbl.length retained);
  if !traced then begin
    (* plan acquisition for each distinct request text, on a private
       snapshot so the live counters are untouched *)
    let distinct = List.sort_uniq compare (List.map (fun r -> r.rsql) responses) in
    let probe = Db.snapshot db in
    let cat = Catalog.pin (Db.catalog probe) in
    List.iter
      (fun sql ->
        match Trace.span "sql_shape" (fun () -> Sqldb.Sql_shape.fingerprint sql) with
        | exception _ -> ()
        | f ->
          ignore
            (Trace.span "planner" (fun () ->
                 Sqldb.Planner.plan_query cat (Sqldb.Sql_parse.parse sql)));
          let bind () =
            ignore
              (Db.bind_from_plan_cache probe cat ~backend:Db.Compiled ~threads:1
                 ~owner:None ~plan_quota:None f)
          in
          bind ();
          Trace.span "plancache" bind)
      distinct;
    (* incremental view refresh after a 0.1% append, on a private
       snapshot *)
    let mv = Db.snapshot db in
    (match Db.register_view mv ~name:"q1_probe" view_sql with
    | Ok () -> ()
    | Error e -> failwith ("register probe view: " ^ e));
    let rng = Random.State.make [| !seed; 99 |] in
    for _ = 1 to 5 do
      Db.append_table mv "lineitem" (make_batch rng);
      ignore (Trace.span "matview.refresh" (fun () -> Db.refresh mv "q1_probe"))
    done;
    let spans = Trace.with_self (Trace.all ()) in
    List.iter
      (fun l -> metric (l ^ ".s") "s" (layer_mean spans l))
      program_layers;
    metric "plancache.bind_us" "us" (1e6 *. layer_mean spans "plancache");
    metric "matview.refresh_ms" "ms" (1000. *. median (selfs spans "matview.refresh"));
    metric "catalog.append_ms" "ms" (1000. *. median (selfs spans "catalog"));
    let per_compile x =
      float_of_int x /. float_of_int (List.length (selfs spans "sqlgen"))
    in
    metric "optimizer.rules_removed" "count" (per_compile !rules_removed);
    metric "sqlgen.sql_bytes" "bytes" (per_compile !sql_bytes);
    metric "exec_compiled.slower_count" "count" (float_of_int !compiled_slower);
    Some spans
  end
  else None

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

(* The metric names BENCHMARK.json declares, in the order it lists them. *)
let end_to_end =
  [ "setup_s"; "peak_heap_mb"; "req_per_s"; "latency_p50_ms"; "latency_p95_ms" ]

let per_layer =
  [ "frontend.s"; "translate.s"; "optimizer.s"; "sqlgen.s";
    "optimizer.rules_removed"; "sqlgen.sql_bytes"; "sql_shape.s"; "planner.s";
    "plancache.bind_us"; "plancache.bind_ratio"; "plancache.guard_trips";
    "exec_vectorized.s"; "exec_compiled.s"; "exec_compiled.slower_count";
    "resultcache.hit_ratio"; "resultcache.reexec"; "resultcache.evictions";
    "matview.hit_ratio"; "matview.delta_refreshes"; "matview.recomputes";
    "server.rejected"; "server.retries"; "gc.minor_mb";
    "gc.major_collections" ]

let stamp () =
  let env =
    List.filter
      (fun kv -> String.length kv > 7 && String.sub kv 0 7 = "PYTOND_")
      (Array.to_list (Unix.environment ()))
  in
  [ ("workload", !workload);
    ("cores", string_of_int nproc);
    ( "parallel_mode",
      match Sqldb.Parallel.current_mode () with
      | Sqldb.Parallel.Domains -> "domains"
      | Sqldb.Parallel.Simulated -> "simulated"
      | Sqldb.Parallel.Sequential_only -> "sequential" );
    ("sf", Printf.sprintf "%g" sf);
    ("seed", string_of_int !seed);
    ("seconds", Printf.sprintf "%g" !seconds);
    ("trace", if !traced then "1" else "0");
    ("ocaml", Sys.ocaml_version);
    ("rev", !rev);
    ("pytond_env", String.concat " " env) ]

let json_metrics names =
  String.concat ", "
    (List.map
       (fun n ->
         match List.assoc_opt n !metrics with
         | Some (v, u) ->
           (* a figure with no samples (every request failed) reads 0 *)
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u
         | None -> failwith ("metric not measured: " ^ n))
       names)

let () =
  let run =
    match !workload with
    | "analytic" -> analytic
    | "notebook" -> notebook
    | "dashboard" -> dashboard
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let spans = run () in
  host_metrics ();
  metric "peak_heap_mb" "MB" (peak_heap_mb ());
  let n = Atomic.get attempted and f = Atomic.get failed in
  metric "fail_ratio" "ratio" (ratio f n);
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let base =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d" !workload !seed
         (if !traced then 1 else 0))
  in
  Option.iter (Trace.write (base ^ ".spans.jsonl")) spans;
  let all = List.sort compare !metrics in
  List.iter (fun (k, v) -> Printf.printf "stamp %s = %s\n" k v) (stamp ());
  List.iter (fun (k, (v, u)) -> Printf.printf "%-34s %14.6f %s\n" k v u) all;
  let oc = open_out (base ^ ".json") in
  Printf.fprintf oc "{\"stamp\": {%s}, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) (stamp ())))
    n f (json_metrics (List.map fst all));
  close_out oc;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (f = 0) n f
    (json_metrics (if !traced then per_layer else end_to_end))
