(* Fast segment-partition DP (DESIGN.md §11).

   Layer b of the DP is a max-plus matrix product against the previous
   layer: A_b[i][j] = dp_{b-1}(i-1) + seg_value i j. When A_b is inverse
   Monge (the CED closed-form segment profit is; linear/logit are in
   practice), the leftmost column argmax is nondecreasing in j, so SMAWK
   computes the whole layer in O(n) evaluations, and a divide-and-conquer
   recursion in O(n log n), instead of O(n^2).

   Each layer climbs a ladder of rungs, each certified by the same
   runtime spot-check (exact re-solve of sampled columns, value and
   argmax bit-for-bit) plus a rung-specific probe. The ladder depends on
   the region count:

   - One region (CED, linear, unclamped logit): SMAWK, then the exact
     row. SMAWK needs only total monotonicity — strictly weaker than
     inverse Monge, exactly what monotone argmaxes need — and computes
     the layer in O(n) evaluations; probed with sampled
     strict-hypothesis TM implications on the rounded candidate matrix
     (what SMAWK actually compares). No Monge probe stands in front of
     it: the seg-only probe rejects layers whose TM probe and exact
     columns pass.

   - Several regions: region-wise divide and conquer, then SMAWK over
     the full layer, then the exact row. The caller's [regions] are
     start positions where seg_value changes branch structure (clamped
     prefix sums, underflowed exponentials); the D&C re-anchors its
     candidate range at every region start, so each region only needs
     the Monge property locally. Probed with seg-only adjacent Monge
     quadruples: the dp_{b-1} terms cancel exactly in the quadruple, so
     including them only measures floating-point cancellation against
     numbers many orders of magnitude larger than the segment deltas.

   The exact quadratic row is the certified backstop: a structurally
   hostile seg_value degrades to the quadratic DP rather than to wrong
   cuts. [samples = 0] turns validation off and takes the D&C
   unchecked, whatever the region count.

   A layer's exact columns sit at positions that depend on (n, b,
   samples) only ([cert_column]), so the layers share all but their
   first. A solve builds every layer's first rung, then certifies them
   all in one sweep that evaluates each shared [seg i j] once: about
   samples * n / 2 evaluations per solve rather than per layer. From the first rejected
   layer on, the ladder runs one layer at a time. *)

type stats = {
  layers : int;
  smawk_layers : int;
  fallback_layers : int;
  evaluations : int;
  regions : int;
}

type result = {
  cuts : int list;
  segments : int;
  value : float;
  stats : stats;
}

(* Bounds checks on the hot inner loops are pure overhead once the index
   arithmetic is pinned by the validation suite; flip to [true] for a
   bounds-checked debug build (the branch is a compile-time constant, so
   flambda-less builds still drop it). *)
let checked_gets = false

let[@inline] fget (a : float array) i =
  if checked_gets then Array.get a i else Array.unsafe_get a i

let[@inline] iget (a : int array) i =
  if checked_gets then Array.get a i else Array.unsafe_get a i

let no_regions = [| 0 |]

let validate ~n ~n_bundles =
  if n < 1 then invalid_arg "Segdp: n must be positive";
  if n_bundles < 1 then invalid_arg "Segdp: n_bundles must be positive"

let check_regions ~n regions =
  let k = Array.length regions in
  if k = 0 || regions.(0) <> 0 then
    invalid_arg "Segdp: regions must start with 0";
  for r = 1 to k - 1 do
    if regions.(r) <= regions.(r - 1) || regions.(r) >= n then
      invalid_arg "Segdp: regions must be strictly increasing within [0, n)"
  done

(* Greatest [r] with [regions.(r) <= j]. *)
let region_of regions j =
  let lo = ref 0 and hi = ref (Array.length regions - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo + 1) / 2) in
    if regions.(mid) <= j then lo := mid else hi := mid - 1
  done;
  !lo

(* Exact best split point for column [j] of layer [b]: scan the full
   candidate range ascending with a strict [>] update, so the smallest
   argmax wins — the quadratic DP's tie-break, which the goldens pin. *)
let exact_best ~prev ~seg ~b j =
  let best = ref Float.neg_infinity and best_i = ref 0 in
  for i = b to j do
    let candidate = fget prev (i - 1) +. seg i j in
    if candidate > !best then begin
      best := candidate;
      best_i := i
    end
  done;
  (!best, !best_i)

let exact_layer ~prev ~cur ~choice_row ~seg ~b ~n =
  for j = b to n - 1 do
    let best, best_i = exact_best ~prev ~seg ~b j in
    cur.(j) <- best;
    choice_row.(j) <- best_i
  done

(* Monotone-decision divide and conquer over a column range: solve the
   middle column over the inherited candidate range, then recurse with
   the range split at the argmax. Identical to the exact layer whenever
   the layer matrix is inverse Monge over the range (leftmost argmaxes
   are then nondecreasing in j, ties included). *)
let dandc_range ~prev ~cur ~choice_row ~seg ~jlo ~jhi ~ilo ~ihi =
  let rec go jlo jhi ilo ihi =
    if jlo <= jhi then begin
      let jmid = jlo + ((jhi - jlo) / 2) in
      let hi = Stdlib.min jmid ihi in
      let best = ref Float.neg_infinity and best_i = ref 0 in
      for i = ilo to hi do
        let candidate = fget prev (i - 1) +. seg i jmid in
        if candidate > !best then begin
          best := candidate;
          best_i := i
        end
      done;
      cur.(jmid) <- !best;
      choice_row.(jmid) <- !best_i;
      (* [!best_i = 0] only when every candidate was NaN; clamp so the
         recursion stays well-formed (validation then forces the next
         rung). *)
      let split = Stdlib.max !best_i ilo in
      go jlo (jmid - 1) ilo split;
      go (jmid + 1) jhi split ihi
    end
  in
  go jlo jhi ilo ihi

(* Region-wise D&C over columns [max b jlo0 .. n-1]. Each region
   re-anchors the candidate range at [b] — monotone argmaxes are only
   assumed within a region, never across a boundary. When the first
   processed column has an in-region left neighbour (the warm-start
   suffix case), that clean column's stored argmax bounds the suffix
   argmaxes from below. *)
let dandc_regions ~prev ~cur ~choice_row ~seg ~b ~n ~regions ~jlo0 =
  let nreg = Array.length regions in
  let r0 =
    if jlo0 <= 0 then 0 else region_of regions (Stdlib.min jlo0 (n - 1))
  in
  for r = r0 to nreg - 1 do
    let rlo = regions.(r) in
    let rhi = if r + 1 < nreg then regions.(r + 1) - 1 else n - 1 in
    let jlo = Stdlib.max b (Stdlib.max rlo jlo0) in
    if jlo <= rhi then begin
      let ilo =
        if jlo - 1 >= b && jlo - 1 >= rlo then
          Stdlib.max (iget choice_row (jlo - 1)) b
        else b
      in
      dandc_range ~prev ~cur ~choice_row ~seg ~jlo ~jhi:rhi ~ilo ~ihi:rhi
    end
  done

(* Working storage owned by one solve (or one retained state) — never
   shared, since pool domains solve concurrently: SMAWK's candidate
   stacks, grown on demand, and [certify]'s per-layer cursor and running
   exact (best, argmax), sized by the layer count. *)
type scratch = {
  mutable sm_cols : int array;
  mutable sm_vals : float array;
  ce_k : int array;  (* index of the next [cert_column] *)
  ce_best : float array;
  ce_arg : int array;  (* -1: the layer does not check this column *)
}

let new_scratch layers =
  {
    sm_cols = [||];
    sm_vals = [||];
    ce_k = Array.make layers 0;
    ce_best = Array.make layers 0.;
    ce_arg = Array.make layers 0;
  }

let reserve scratch n =
  if Array.length scratch.sm_cols < 3 * n then begin
    scratch.sm_cols <- Array.make (3 * n) 0;
    scratch.sm_vals <- Array.make n 0.
  end

(* SMAWK over the staircase layer matrix: rows are DP columns [j],
   columns are split candidates [i], entries prev.(i-1) + seg i j with
   the invalid triangle i > j padded to -inf (padding that preserves
   total monotonicity whenever the staircase part has it). Computes the
   leftmost row maximum of every row [j] in [max b jlo0, n) in O(rows +
   cols) evaluations per recursion level; exact precisely when the
   layer matrix is totally monotone — which the caller's certificate
   then checks. A warm suffix ([jlo0 > b]) starts its candidates at the
   last clean column's stored argmax, the bound monotone argmaxes
   give.

   Allocation-free: level k's rows are the progression r0 + t * 2^k, so
   they need no array; the candidate lists live in [scratch.sm_cols] —
   the level-0 range, then each level's REDUCE output stacked after its
   input, at most 3n entries — and REDUCE keeps each stack entry's value
   at its own row in [scratch.sm_vals], so a comparison evaluates only
   the incoming candidate. *)
let smawk_layer ~scratch ~prev ~cur ~choice_row ~seg ~b ~n ~jlo0 =
  let jlo = Stdlib.max b jlo0 in
  if jlo <= n - 1 then begin
    let ilo =
      if jlo - 1 >= b then Stdlib.max (iget choice_row (jlo - 1)) b else b
    in
    reserve scratch n;
    let cols = scratch.sm_cols and vals = scratch.sm_vals in
    let m j i =
      if i > j then Float.neg_infinity else fget prev (i - 1) +. seg i j
    in
    let ncols = n - ilo in
    for k = 0 to ncols - 1 do
      cols.(k) <- ilo + k
    done;
    (* Rows [r0 + t * step] for [t < nr]; candidates
       [cols.(off) .. cols.(off + len - 1)]; [cols.(free ..)] unused. *)
    let rec go r0 step nr off len free =
      if nr > 0 then begin
        (* REDUCE: prune to at most [nr] candidates that can still hold
           some row's leftmost argmax. Pops are strict [>], so a tie
           keeps the earlier candidate — the quadratic DP's tie-break.
           Every entry below the top already has its value cached (the
           comparison that let the entry above it through computed it);
           [known] tracks the top's. *)
        let off, len, free =
          if len <= nr then (off, len, free)
          else begin
            let top = ref 0 and known = ref false in
            for q = off to off + len - 1 do
              let c = iget cols q in
              let popping = ref true in
              while !popping && !top > 0 do
                let row = r0 + ((!top - 1) * step) in
                if not !known then begin
                  vals.(!top - 1) <- m row (iget cols (free + !top - 1));
                  known := true
                end;
                if m row c > fget vals (!top - 1) then decr top
                else popping := false
              done;
              if !top < nr then begin
                cols.(free + !top) <- c;
                incr top;
                known := false
              end
            done;
            (free, !top, free + !top)
          end
        in
        if nr = 1 then begin
          let j = r0 in
          let best = ref Float.neg_infinity and best_i = ref b in
          for q = off to off + len - 1 do
            let c = iget cols q in
            let v = m j c in
            if v > !best then begin
              best := v;
              best_i := c
            end
          done;
          cur.(j) <- !best;
          choice_row.(j) <- !best_i
        end
        else begin
          go (r0 + step) (2 * step) (nr / 2) off len free;
          (* Interpolate the even rows: row t's leftmost argmax lies
             between its solved neighbours' argmaxes, so one pointer
             sweeps the candidates across all even rows. *)
          let last = off + len - 1 in
          let p = ref off in
          let t = ref 0 in
          while !t < nr do
            let j = r0 + (!t * step) in
            let stop =
              if !t + 1 < nr then iget choice_row (r0 + ((!t + 1) * step))
              else iget cols last
            in
            let best = ref Float.neg_infinity and best_i = ref b in
            let q = ref !p in
            let scanning = ref true in
            while !scanning && !q <= last do
              let c = iget cols !q in
              if c > stop then scanning := false
              else begin
                let v = m j c in
                if v > !best then begin
                  best := v;
                  best_i := c
                end;
                if c = stop then scanning := false else incr q
              end
            done;
            cur.(j) <- !best;
            choice_row.(j) <- !best_i;
            while !p < last && iget cols !p < stop do
              incr p
            done;
            t := !t + 2
          done
        end
      end
    in
    go jlo 1 (n - jlo) 0 ncols ncols
  end

(* xorshift64: cheap deterministic sampling, independent of the global
   Random state (lib code must stay reproducible; DESIGN.md §10 D003). *)
let sample_int state bound =
  let s = !state in
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  let s = Int64.logxor s (Int64.shift_left s 17) in
  state := s;
  Int64.to_int (Int64.rem (Int64.logand s Int64.max_int) (Int64.of_int bound))

(* Rung-1 probe: [samples] adjacent inverse-Monge quadruples on
   seg_value alone, with the column pair (j, j+1) drawn inside one
   region. The dp_{b-1} terms cancel exactly in the real-arithmetic
   quadruple, so they are omitted rather than letting their
   floating-point cancellation (|dp| can exceed |seg delta| by 1e13)
   manufacture spurious violations. Sound in the fallback direction:
   any detected oddity, NaN included, rejects the rung. *)
let monge_valid ~seg ~b ~n ~samples ~regions =
  if n - b < 3 then true
  else begin
    let ok = ref true in
    let state = ref (Int64.of_int (0x9E3779B9 + (b * 0x85EBCA6B))) in
    let s = ref 0 in
    let one_region = Array.length regions = 1 in
    while !ok && !s < samples do
      let i = b + sample_int state (n - 2 - b) in
      let j = i + 1 + sample_int state (n - 2 - i) in
      if one_region || region_of regions j = region_of regions (j + 1) then begin
        let a_ij = seg i j and a_i1j1 = seg (i + 1) (j + 1) in
        let a_i1j = seg (i + 1) j and a_ij1 = seg i (j + 1) in
        if not (a_ij +. a_i1j1 >= a_i1j +. a_ij1) then ok := false
      end;
      incr s
    done;
    !ok
  end

(* Rung-2 probe: [samples] strict-hypothesis total-monotonicity
   implications on the rounded candidate matrix (dp terms included —
   these are exactly the comparisons SMAWK performs, so near-ties make
   the hypothesis false and the draw vacuous instead of noisy). *)
let tm_valid ~prev ~seg ~b ~n ~samples =
  if n - b < 3 then true
  else begin
    let ok = ref true in
    let state = ref (Int64.of_int (0xC2B2AE35 + (b * 0x27D4EB2F))) in
    let s = ref 0 in
    let cand i j = fget prev (i - 1) +. seg i j in
    while !ok && !s < samples do
      let i = b + sample_int state (n - 2 - b) in
      let i' = i + 1 + sample_int state (n - 2 - i) in
      let j = i' + sample_int state (n - 1 - i') in
      let j' = j + 1 + sample_int state (n - 1 - j) in
      let a = cand i j
      and b' = cand i' j
      and c = cand i j'
      and d = cand i' j' in
      if Float.is_nan a || Float.is_nan b' || Float.is_nan c || Float.is_nan d
      then ok := false
      else if a < b' && not (c < d) then ok := false;
      incr s
    done;
    !ok
  end

(* Which rung a layer tries first. Single-region layers under
   validation start on SMAWK: linear evaluations per layer, and no Monge
   probe in front of it — the seg-only probe rejects layers whose TM
   probe and exact columns pass. Multi-region layers start on the
   region-wise D&C, the only rung that re-anchors at region starts;
   [samples = 0] accepts it unvalidated (documented contract). *)
let smawk_first ~samples ~regions = samples > 0 && Array.length regions = 1

(* A layer's first rung over columns [max b jlo0, n), and whether its
   probe holds; its exact columns are left to [certify]. *)
let first_rung ~scratch ~samples ~regions ~prev ~cur ~choice_row ~seg ~b ~n
    ~jlo0 =
  if smawk_first ~samples ~regions then begin
    smawk_layer ~scratch ~prev ~cur ~choice_row ~seg ~b ~n ~jlo0;
    tm_valid ~prev ~seg ~b ~n ~samples
  end
  else begin
    dandc_regions ~prev ~cur ~choice_row ~seg ~b ~n ~regions ~jlo0;
    samples = 0 || monge_valid ~seg ~b ~n ~samples ~regions
  end

type counts = { mutable smawk : int; mutable fallback : int }

let no_counts () = { smawk = 0; fallback = 0 }

let traceback ~choice ~best_b ~n =
  let rec go b j acc =
    if b = 0 then acc
    else
      let i = choice.(b).(j) in
      go (b - 1) (i - 1) (i :: acc)
  in
  go best_b (n - 1) []

(* --- retained state --------------------------------------------------------- *)

(* Every solve fills the full DP matrices of a state: [solve] and
   [solve_quadratic] drop it, [solve_with_state] hands it back. The
   streaming re-tier loop solves an almost-identical instance every
   window: only a suffix of the cost-sorted positions changes. Retaining
   the full DP matrices lets the next solve recompute exactly the
   columns [dirty_from ..] of every layer — column j of any layer
   depends only on [prev] at positions [< j] and on [seg i j] with
   [i <= j], so every column left of the first dirty position is
   untouched by construction, not by assumption. The recomputed suffix
   runs the layer's first rung — the one a cold layer tries first — with
   its candidates starting at the last clean column's stored argmax,
   and every layer is re-validated by that rung's certificate; a failed
   check abandons the warm attempt and re-solves from scratch through
   the full ladder into the same state, so a warm result can never
   silently diverge from a cold one. *)

type state = {
  st_n : int;
  st_b_max : int;
  st_dp : float array array;  (* b_max rows of n layer values *)
  st_choice : int array array;  (* b_max rows; row 0 unused *)
  st_last : float array;  (* dp value of the full prefix per layer *)
  mutable st_regions : int array;  (* region starts of the last solve *)
  st_scratch : scratch;
}

let new_state ~n ~n_bundles ~regions =
  validate ~n ~n_bundles;
  check_regions ~n regions;
  let b_max = Stdlib.min n_bundles n in
  {
    st_n = n;
    st_b_max = b_max;
    st_dp = Array.make_matrix b_max n Float.neg_infinity;
    st_choice = Array.make_matrix b_max n 0;
    st_last = Array.make b_max Float.neg_infinity;
    st_regions = regions;
    st_scratch = new_scratch b_max;
  }

let state_n st = st.st_n

(* [seg_value] wrapped to count its calls. *)
let counted seg_value =
  let evals = ref 0 in
  ( (fun i j ->
      incr evals;
      seg_value i j),
    evals )

(* The optimum the state holds among its first [cap] layers (default:
   all of them). Smallest argmax over achievable segment counts — the
   quadratic DP's best_b selection. *)
let finish ?cap st ~layers ~counts ~evaluations =
  let last = st.st_last in
  let cap = Option.value cap ~default:st.st_b_max in
  let best_b = ref 0 in
  for b = 1 to cap - 1 do
    if last.(b) > last.(!best_b) then best_b := b
  done;
  {
    cuts = traceback ~choice:st.st_choice ~best_b:!best_b ~n:st.st_n;
    segments = !best_b + 1;
    value = last.(!best_b);
    stats =
      {
        layers;
        smawk_layers = counts.smawk;
        fallback_layers = counts.fallback;
        evaluations;
        regions = Array.length st.st_regions;
      };
  }

(* The base layer's columns [from, n). *)
let base_layer st seg ~from =
  let row = st.st_dp.(0) in
  for j = from to st.st_n - 1 do
    row.(j) <- seg 0 j
  done;
  st.st_last.(0) <- row.(st.st_n - 1)

(* Column [k] of layer [b]'s certificate, [n] past the last. The first
   [cols = min samples (n - b)] are evenly spaced over [0, n) but never
   left of [b + k] ([b] first, [n - 1] last, all distinct); they depend
   on (n, b, samples) alone, so once n >> b * samples every layer's
   [k >= 1] columns coincide. Then, with several regions, every region
   start (strided down to [samples]), where the D&C re-anchors. *)
let cert_column ~n ~samples ~regions ~b k =
  let cols = Stdlib.min samples (n - b) and nreg = Array.length regions in
  if k < cols then
    if cols = 1 then n - 1 else Stdlib.max (b + k) (k * (n - 1) / (cols - 1))
  else
    let r = 1 + ((k - cols) * (1 + ((nreg - 1) / Stdlib.max samples 1))) in
    if samples > 0 && r < nreg then Stdlib.max b regions.(r) else n

(* The certificate shared by every fast rung, for layers [lo .. hi] in
   one sweep: each layer re-solves its [cert_column]s exactly, value and
   argmax bit-for-bit. Each step takes the smallest next column j over
   the layers and computes every [seg i j] once, folding it into the
   running (best, argmax) of each layer b <= i whose next column is j,
   with the exact row's strict [>] update. Returns the first failing
   layer, or [hi + 1]; layers above a failure are no longer checked. *)
let certify ~samples ~regions st seg ~lo ~hi =
  let n = st.st_n and dp = st.st_dp and choice = st.st_choice in
  let { ce_k = ks; ce_best = best; ce_arg = arg; _ } = st.st_scratch in
  Array.fill ks 0 (Array.length ks) 0;
  let next b = cert_column ~n ~samples ~regions ~b ks.(b) in
  let failed = ref (hi + 1) and col = ref 0 in
  while !col < n do
    col := n;
    for b = lo to !failed - 1 do
      col := Stdlib.min !col (next b)
    done;
    let j = !col and low = ref !failed in
    if j < n then begin
      for b = !failed - 1 downto lo do
        if next b = j then begin
          ks.(b) <- ks.(b) + 1;
          best.(b) <- Float.neg_infinity;
          arg.(b) <- 0;
          low := b
        end
        else arg.(b) <- -1
      done;
      for i = !low to j do
        let s = seg i j in
        for b = !low to Stdlib.min i (!failed - 1) do
          if iget arg b >= 0 then begin
            let candidate = fget dp.(b - 1) (i - 1) +. s in
            if candidate > fget best b then begin
              best.(b) <- candidate;
              arg.(b) <- i
            end
          end
        done
      done;
      for b = !failed - 1 downto !low do
        if
          arg.(b) >= 0
          && ((not (Float.equal dp.(b).(j) best.(b)))
             || choice.(b).(j) <> arg.(b))
        then failed := b
      done
    end
  done;
  !failed

(* Every later layer's first rung over columns [max b jlo0, n), each
   built on the one below and stopping after the first failed probe,
   then one [certify] sweep over the layers whose probes held. Returns
   the first layer whose probe or columns failed ([b_max] when none
   did) and counts the SMAWK layers below it. *)
let first_rungs ~samples ~counts st seg ~jlo0 =
  let n = st.st_n and regions = st.st_regions in
  let dp = st.st_dp and choice = st.st_choice in
  let b = ref 1 and probed = ref true in
  while !probed && !b < st.st_b_max do
    let b' = !b in
    probed :=
      first_rung ~scratch:st.st_scratch ~samples ~regions ~prev:dp.(b' - 1)
        ~cur:dp.(b') ~choice_row:choice.(b') ~seg ~b:b' ~n ~jlo0;
    st.st_last.(b') <- dp.(b').(n - 1);
    incr b
  done;
  let hi = if !probed then st.st_b_max - 1 else !b - 2 in
  let bad = certify ~samples ~regions st seg ~lo:1 ~hi in
  if smawk_first ~samples ~regions then counts.smawk <- bad - 1;
  bad

(* Layer [b] alone through the ladder, each rung certified by its probe
   and [certify] on this layer: the first rung (unless [from_first] is
   false, after a rejected first rung); SMAWK over the full layer when
   the first rung was a rejected D&C; the exact row when every fast rung
   was rejected. Every rung rewrites all of columns [b, n), the only
   ones a layer's successor, the traceback and the checks read. *)
let ladder_layer ~samples ~counts st seg ~b ~from_first =
  let n = st.st_n and regions = st.st_regions and scratch = st.st_scratch in
  let prev = st.st_dp.(b - 1) and cur = st.st_dp.(b) in
  let choice_row = st.st_choice.(b) in
  let certified regions = certify ~samples ~regions st seg ~lo:b ~hi:b > b in
  let first = smawk_first ~samples ~regions in
  let rung =
    if
      from_first
      && first_rung ~scratch ~samples ~regions ~prev ~cur ~choice_row ~seg ~b
           ~n ~jlo0:0
      && certified regions
    then if first then `Smawk else `Dandc
    else if first then `Exact
    else begin
      smawk_layer ~scratch ~prev ~cur ~choice_row ~seg ~b ~n ~jlo0:0;
      if tm_valid ~prev ~seg ~b ~n ~samples && certified no_regions then
        `Smawk
      else `Exact
    end
  in
  (match rung with
  | `Dandc -> ()
  | `Smawk -> counts.smawk <- counts.smawk + 1
  | `Exact ->
      counts.fallback <- counts.fallback + 1;
      exact_layer ~prev ~cur ~choice_row ~seg ~b ~n);
  st.st_last.(b) <- cur.(n - 1)

(* The cold fill into the state's retained rows: every layer's first
   rung, certified in one sweep; from the first rejected layer on, the
   ladder one layer at a time (its successors were built on a rejected
   layer, so they restart from their first rung). *)
let fill_ladder ~samples ~counts st seg =
  base_layer st seg ~from:0;
  let bad = first_rungs ~samples ~counts st seg ~jlo0:0 in
  for b = bad to st.st_b_max - 1 do
    ladder_layer ~samples ~counts st seg ~b ~from_first:(b > bad)
  done

let solve_quadratic ~n ~n_bundles seg_value =
  let st = new_state ~n ~n_bundles ~regions:no_regions in
  let seg, evals = counted seg_value in
  base_layer st seg ~from:0;
  for b = 1 to st.st_b_max - 1 do
    let cur = st.st_dp.(b) in
    exact_layer ~prev:st.st_dp.(b - 1) ~cur ~choice_row:st.st_choice.(b) ~seg
      ~b ~n;
    st.st_last.(b) <- cur.(n - 1)
  done;
  finish st ~layers:st.st_b_max ~counts:(no_counts ()) ~evaluations:!evals

let solve_with_state ?(samples = 16) ?(regions = no_regions) ~n ~n_bundles
    seg_value =
  let st = new_state ~n ~n_bundles ~regions in
  let seg, evals = counted seg_value and counts = no_counts () in
  fill_ladder ~samples ~counts st seg;
  (finish st ~layers:st.st_b_max ~counts ~evaluations:!evals, st)

let solve ?samples ?regions ~n ~n_bundles seg_value =
  fst (solve_with_state ?samples ?regions ~n ~n_bundles seg_value)

(* Recompute columns [d, n) of every layer through the layer's first
   rung, all layers certified as a cold fill's first rungs are; [false]
   when a probe or a column fails. *)
let warm_suffix ~samples ~counts st seg ~d =
  base_layer st seg ~from:d;
  first_rungs ~samples ~counts st seg ~jlo0:d = st.st_b_max

let solve_warm ?(samples = 16) ?regions ?(force_fallback = false) st
    ~dirty_from seg_value =
  let n = st.st_n in
  if dirty_from < 0 || dirty_from > n then
    invalid_arg "Segdp.solve_warm: dirty_from out of [0, n]";
  (match regions with
  | Some r ->
      check_regions ~n r;
      st.st_regions <- r
  | None -> ());
  if dirty_from = n && not force_fallback then
    (* Nothing changed: the retained optimum, replayed with zero
       evaluations. *)
    (finish st ~layers:0 ~counts:(no_counts ()) ~evaluations:0, `Warm)
  else begin
    (* The warm attempt from the first dirty column, and the full cold
       fill into the same state when it diverges (or a drill forces
       it). The warm attempt's evaluations stay in the bill — they were
       really spent. *)
    let seg, evals = counted seg_value and warm = no_counts () in
    let d = Stdlib.min dirty_from (n - 1) in
    let how, counts =
      if (not force_fallback) && warm_suffix ~samples ~counts:warm st seg ~d
      then (`Warm, warm)
      else begin
        let counts = no_counts () in
        fill_ladder ~samples ~counts st seg;
        (`Cold, counts)
      end
    in
    (finish st ~layers:st.st_b_max ~counts ~evaluations:!evals, how)
  end

let verify_columns ?(samples = 64) st seg_value =
  let n = st.st_n and b_max = st.st_b_max in
  let dp = st.st_dp and choice = st.st_choice in
  let ok = ref true in
  let b = ref 0 in
  while !ok && !b < b_max do
    let b' = !b in
    let state = ref (Int64.of_int (0x165667B1 + (b' * 0x85EBCA6B))) in
    let draws = Stdlib.min samples (n - b') in
    let s = ref 0 in
    while !ok && !s < draws do
      let j = b' + sample_int state (n - b') in
      if b' = 0 then begin
        if not (Float.equal dp.(0).(j) (seg_value 0 j)) then ok := false
      end
      else begin
        let best, best_i = exact_best ~prev:dp.(b' - 1) ~seg:seg_value ~b:b' j in
        if
          (not (Float.equal dp.(b').(j) best)) || choice.(b').(j) <> best_i
        then ok := false
      end;
      incr s
    done;
    incr b
  done;
  !ok

(* Layer b of a fill does not depend on how many layers follow it, so
   one fill at [max_bundles] holds every smaller solve: entry [b - 1]
   is [finish] capped at layer [b], exactly [solve ~n_bundles:b]. *)
let solve_curve ?(samples = 16) ?(regions = no_regions) ~n ~max_bundles
    seg_value =
  let st = new_state ~n ~n_bundles:max_bundles ~regions in
  let seg, evals = counted seg_value and counts = no_counts () in
  fill_ladder ~samples ~counts st seg;
  Array.init max_bundles (fun b ->
      finish ~cap:(Stdlib.min (b + 1) st.st_b_max) st ~layers:st.st_b_max
        ~counts ~evaluations:!evals)
