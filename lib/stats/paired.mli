(** Paired-sample statistics for matched-pair configuration comparison
    (common random numbers).

    When two machine configurations replay the *same* captured interval
    set, the per-interval metric differences [d_i = candidate_i -
    baseline_i] share all workload variance: the confidence interval of
    the mean difference shrinks by the (often large) interval-to-interval
    correlation, so small real deltas resolve at budgets where
    independent runs drown in phase noise. This module is pure
    arithmetic over the paired metric arrays; {!Ptl_sweep.Sweep} feeds
    it per-interval CPIs. *)

(** Result of comparing [candidate] against [baseline] over [n] matched
    pairs. Deltas are [candidate - baseline]: negative means the
    candidate is better when the metric is a cost (CPI). *)
type t = {
  n : int;  (** matched pairs compared *)
  mean_baseline : float;
  mean_candidate : float;
  delta_mean : float;  (** mean of the per-pair differences *)
  delta_sd : float;  (** sample standard deviation of the differences *)
  delta_ci95 : float;
      (** 95% half-width of [delta_mean] under pairing:
          [1.96 * delta_sd / sqrt n] *)
  indep_ci95 : float;
      (** 95% half-width the same data would give WITHOUT pairing —
          two independent samples of size [n]:
          [1.96 * sqrt (var_baseline/n + var_candidate/n)]. The
          common-random-numbers payoff is [indep_ci95 / delta_ci95]. *)
}

(** Compare matched pairs. Raises [Invalid_argument] if the arrays
    differ in length. *)
val compare : baseline:float array -> candidate:float array -> t

(** [Win] = the paired 95% CI lies strictly below zero (candidate's
    metric is smaller); [Loss] = strictly above; [Tie] = the CI spans
    zero, or fewer than 2 pairs. *)
type verdict = Win | Loss | Tie

val verdict : t -> verdict
val verdict_to_string : verdict -> string

(** Does the paired 95% CI exclude zero? (False for n < 2.) *)
val paired_excludes_zero : t -> bool

(** Would the unpaired CI on the same data exclude zero? *)
val indep_excludes_zero : t -> bool
