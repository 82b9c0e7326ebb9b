(* Lock-free log-bucketed latency/size histograms (HDR-style).

   A histogram is a fixed array of atomic bucket counters on a
   log-linear grid: [sub] linear sub-buckets per power of two, octaves
   spanning 2^-40 s (~1e-12, below any clock tick) to 2^24 s (~6
   months), plus a dedicated bucket for zero/negative values and exact
   atomic count / sum / max alongside. Everything is a fetch-and-add or
   a CAS retry loop, so worker domains observe concurrently without a
   lock and without losing updates; readers see a slightly torn but
   monotone snapshot, which is all a percentile report needs.

   The grid resolution is sub = 16, i.e. every bucket's upper bound is
   within 1/16 (6.25%) of its lower bound - percentile estimates carry
   at most that relative error, while exact max is tracked separately.

   Like counters, histograms accumulate with no sink installed, and
   observing one emits no event: span durations already travel as
   [Span_end.dur_s], from which JSONL readers and the aggregate sink
   rebuild the distribution offline. *)

let sub = 16
let min_exp = -40
let max_exp = 24
let octaves = max_exp - min_exp

(* bucket 0: v <= 0; buckets 1 .. octaves*sub: the log-linear grid.
   Values beyond the top octave clamp into the last bucket. *)
let n_buckets = 1 + (octaves * sub)

(* An exemplar is one immutable block: the bucket's last writer swaps
   the whole pointer with a single atomic store, so a concurrent reader
   sees either the previous exemplar or the new one, never a trace id
   from one observation paired with the value of another. *)
type exemplar = { ex_trace : string; ex_value : float; ex_ts : float }

type t = {
  name : string;
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : float Atomic.t;
  max : float Atomic.t;
  (* Allocated by [enable_exemplars]; [None] costs observe nothing.
     The field is plain mutable: enable before concurrent observation
     starts (a racing observer may miss the array and skip its
     exemplar, never corrupt one). *)
  mutable exemplars : exemplar option Atomic.t array option;
}

let create name =
  {
    name;
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0.0;
    max = Atomic.make 0.0;
    exemplars = None;
  }

let name t = t.name

(* ----- registry (same discipline as Counter) --------------------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32
let registry_mutex = Mutex.create ()
let order : t list ref = ref []

let make name =
  Mutex.lock registry_mutex;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
      let h = create name in
      Hashtbl.add registry name h;
      order := h :: !order;
      h
  in
  Mutex.unlock registry_mutex;
  h

(* ----- bucketing ------------------------------------------------------- *)

let bucket_of_value v =
  if not (v > 0.0) then 0 (* zero, negative, nan *)
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1) *)
    if e > max_exp then n_buckets - 1
    else if e <= min_exp then 1
    else begin
      let si = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub) in
      let si = if si >= sub then sub - 1 else if si < 0 then 0 else si in
      1 + ((e - min_exp - 1) * sub) + si
    end
  end

(* Largest value that lands in bucket [i] (its inclusive upper edge up
   to float rounding); bucket 0 holds only non-positive values. *)
let bucket_upper i =
  if i <= 0 then 0.0
  else begin
    let i = i - 1 in
    let e = min_exp + 1 + (i / sub) in
    let si = i mod sub in
    (* lower mantissa edge 0.5 + si/(2*sub), width 1/(2*sub) *)
    Float.ldexp (0.5 +. (float_of_int (si + 1) /. float_of_int (2 * sub))) e
  end

let rec cas_add cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then cas_add cell x

let rec cas_max cell x =
  let old = Atomic.get cell in
  if x > old && not (Atomic.compare_and_set cell old x) then cas_max cell x

let enable_exemplars t =
  Mutex.lock registry_mutex;
  (if t.exemplars = None then
     t.exemplars <- Some (Array.init n_buckets (fun _ -> Atomic.make None)));
  Mutex.unlock registry_mutex

let exemplars_enabled t = t.exemplars <> None

let observe ?exemplar t v =
  let bi = bucket_of_value v in
  ignore (Atomic.fetch_and_add t.buckets.(bi) 1);
  ignore (Atomic.fetch_and_add t.count 1);
  cas_add t.sum v;
  cas_max t.max v;
  match (exemplar, t.exemplars) with
  | Some trace, Some arr when trace <> "" ->
    (* Last-writer-wins: a plain atomic store of one immutable block. *)
    Atomic.set arr.(bi)
      (Some { ex_trace = trace; ex_value = v; ex_ts = Clock.now_unix () })
  | _ -> ()

let exemplar_of_bucket t i =
  match t.exemplars with
  | None -> None
  | Some arr -> if i >= 0 && i < n_buckets then Atomic.get arr.(i) else None

let exemplar_for t v = exemplar_of_bucket t (bucket_of_value v)

(* ----- readers --------------------------------------------------------- *)

let count t = Atomic.get t.count
let sum t = Atomic.get t.sum
let max_value t = Atomic.get t.max

let mean t =
  let n = count t in
  if n = 0 then Float.nan else sum t /. float_of_int n

(* Smallest bucket upper bound covering rank ceil(p*n), capped at the
   exact max so a lone huge sample does not report its bucket edge. *)
let percentile t p =
  let n = count t in
  if n = 0 then Float.nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let rec walk i cum =
      if i >= n_buckets then max_value t
      else begin
        let cum = cum + Atomic.get t.buckets.(i) in
        if cum >= rank then
          (* The overflow bucket's edge is a floor, not a ceiling: values
             clamped into it can be arbitrarily large, so report the
             exact max instead of underestimating. *)
          if i = n_buckets - 1 then max_value t
          else Float.min (bucket_upper i) (max_value t)
        else walk (i + 1) cum
      end
    in
    walk 0 0
  end

let percentile_opt t p = if count t = 0 then None else Some (percentile t p)

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99

let nonzero_buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get t.buckets.(i) in
    if c <> 0 then acc := (i, c) :: !acc
  done;
  !acc

(* ----- merge ----------------------------------------------------------- *)

let merge_into ~src ~dst =
  Array.iteri
    (fun i b ->
      let c = Atomic.get b in
      if c <> 0 then ignore (Atomic.fetch_and_add dst.buckets.(i) c))
    src.buckets;
  ignore (Atomic.fetch_and_add dst.count (Atomic.get src.count));
  cas_add dst.sum (Atomic.get src.sum);
  cas_max dst.max (Atomic.get src.max)

let union a b =
  let h = create a.name in
  merge_into ~src:a ~dst:h;
  merge_into ~src:b ~dst:h;
  h

let copy t =
  let h = create t.name in
  merge_into ~src:t ~dst:h;
  h

(* Interval view for the telemetry sampler: the distribution of what
   happened between two cumulative snapshots of the same histogram.
   Buckets and count are clamped at zero so a torn read of a live
   [newer] never yields negative counts; sum diffs may be slightly off
   under the same tear, and max is the cumulative max (a true interval
   max is not recoverable from cumulative state), so the interval
   percentile cap still holds. *)
let interval_sub ~newer ~older =
  let h = create newer.name in
  Array.iteri
    (fun i b ->
      let d = Atomic.get b - Atomic.get older.buckets.(i) in
      if d > 0 then Atomic.set h.buckets.(i) d)
    newer.buckets;
  Atomic.set h.count (max 0 (Atomic.get newer.count - Atomic.get older.count));
  Atomic.set h.sum (Float.max 0.0 (Atomic.get newer.sum -. Atomic.get older.sum));
  Atomic.set h.max (Atomic.get newer.max);
  h

(* ----- plain snapshots (telemetry sampler) ----------------------------- *)

(* A sampler-owned copy with no atomics. [create]-based snapshots
   ([copy]/[interval_sub]) allocate ~1k Atomic.t cells, which in OCaml
   5.1 land on the shared major heap — under parallel load those
   allocations contend with the workload's and a single copy costs
   milliseconds. A plain int array is an ordinary allocation, so
   snapshotting every active histogram each tick stays microseconds. *)
type snapshot = {
  snap_buckets : int array;
  snap_count : int;
  snap_sum : float;
  snap_max : float;
}

let snapshot t =
  {
    snap_buckets = Array.init n_buckets (fun i -> Atomic.get t.buckets.(i));
    snap_count = Atomic.get t.count;
    snap_sum = Atomic.get t.sum;
    snap_max = Atomic.get t.max;
  }

let snapshot_count s = s.snap_count

(* Shared zero snapshot for "no previous tick": the cumulative state
   then is the interval, matching [interval_sub]'s first-tick case. *)
let zero_snapshot =
  { snap_buckets = Array.make n_buckets 0; snap_count = 0; snap_sum = 0.0;
    snap_max = 0.0 }

let interval_count ?(since = zero_snapshot) newer =
  let d = newer.snap_count - since.snap_count in
  if d > 0 then d else 0

let interval_percentile ?(since = zero_snapshot) newer p =
  let n = interval_count ~since newer in
  if n = 0 then None
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let rec walk i cum =
      if i >= n_buckets then Some newer.snap_max
      else begin
        let d = newer.snap_buckets.(i) - since.snap_buckets.(i) in
        let cum = cum + if d > 0 then d else 0 in
        if cum >= rank then
          if i = n_buckets - 1 then Some newer.snap_max
          else Some (Float.min (bucket_upper i) newer.snap_max)
        else walk (i + 1) cum
      end
    in
    walk 0 0
  end

let reset t =
  Array.iter (fun b -> Atomic.set b 0) t.buckets;
  Atomic.set t.count 0;
  Atomic.set t.sum 0.0;
  Atomic.set t.max 0.0;
  match t.exemplars with
  | None -> ()
  | Some arr -> Array.iter (fun c -> Atomic.set c None) arr

let reset_all () = Hashtbl.iter (fun _ h -> reset h) registry

let registered () = List.rev !order
