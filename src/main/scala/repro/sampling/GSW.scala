package repro.sampling

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** GSW (Generalized Smoothed Weighted) sampling — the paper's core
  * contribution (§4.1).
  *
  * Parameterized by a positive constant Δ and positive per-row sampling
  * weights `w_i`: row `i` is drawn independently with probability
  * `w_i / (Δ + w_i)`. The calibrated measure stored with each sampled row is
  * `m̂_i = m_i (Δ + w_i) / w_i`, making `Σ_{i∈S} m̂_i` unbiased for any
  * constrained subset sum (Horvitz–Thompson).
  *
  * Accuracy (Theorem 3): if `w` is (θ̲, θ̄)-consistent with `m`, then
  * `RSTD ≤ sqrt((θ̄/θ̲) / E[|S|])`. With `w = m` (the optimal GSW sampler,
  * Corollary 4) the bound is `sqrt(1 / E[|S|])` — on par with priority
  * sampling, the best known subset-sum sampler.
  *
  * Implementation note: this is a pure DataFrame transform — each row draws
  * `p_i ~ U[0,1]` via `rand(seed)` and survives iff
  * `p_i ≤ w_i/(Δ+w_i)`, which is embarrassingly parallel and runs
  * distributed under Catalyst exactly as the paper's MaxCompute UDF did.
  * The drawn `p_i` and weight `w_i` are retained in columns `gsw_p` /
  * `gsw_w` so the sample can later be thinned to a larger Δ′ without
  * re-reading the base table (see [[IncrementalGSW]]).
  *
  * @param delta      the Δ knob: larger Δ ⇒ smaller sample
  * @param weight     sampling-weight expression (must be > 0 on every row)
  * @param weightName display name of the weight choice for bench tables
  * @param ms         measures to carry calibrated estimate columns for
  * @param seed       deterministic seed for the per-row uniform draws. Must
  *                   not equal a seed used by the data generator's own
  *                   `rand`/`randn` streams, or the draw reproduces that
  *                   stream and correlates with the generated column
  *                   (defaults here are large primes for that reason)
  */
final case class GSW(delta: Double, weight: Column, weightName: String,
                     ms: Seq[String], seed: Long = 104729) extends Sampler {
  require(delta > 0, s"GSW: delta=$delta must be positive")

  override def name: String = f"GSW($weightName, Δ=$delta%.1f)"
  override def measures: Seq[String] = ms

  override def sample(df: DataFrame): DataFrame = {
    val drawn = df
      .withColumn(GSW.WeightCol, weight.cast("double"))
      .withColumn(GSW.DrawCol, rand(seed))
      .filter(col(GSW.DrawCol) <= col(GSW.WeightCol) / (col(GSW.WeightCol) + delta))
    GSW.calibrated(drawn, delta, ms)
  }

  /** The same sampler with Δ chosen so the sample is ≈ `rate × |df|` rows
    * (see [[GSW.deltaForRate]]), e.g. `GSW.arithmetic(1.0, ms).atRate(df, r)`.
    */
  def atRate(df: DataFrame, rate: Double): GSW =
    copy(delta = GSW.deltaForRate(df, weight, rate))
}

object GSW {

  /** Stored sampling weight `w_i` of each sampled row. */
  val WeightCol = "gsw_w"

  /** Stored uniform draw `p_i` of each sampled row (for Δ→Δ′ maintenance). */
  val DrawCol = "gsw_p"

  /** Adds the calibrated column `m̂_i = m_i (Δ + w_i) / w_i` of each of `ms`
    * to sampled rows that carry their weight in [[WeightCol]].
    */
  private[sampling] def calibrated(sample: DataFrame, delta: Double, ms: Seq[String]): DataFrame =
    ms.foldLeft(sample) { (acc, m) =>
      acc.withColumn(Sampler.estCol(m), col(m) * (col(WeightCol) + delta) / col(WeightCol))
    }

  /** Optimal GSW sampler (§4.1.2): weights equal the measure itself, giving
    * the (1,1)-consistent bound of Corollary 4. One sample per measure.
    */
  def optimal(delta: Double, measure: String, seed: Long = 104729): GSW =
    GSW(delta, col(measure), s"w=$measure", Seq(measure), seed)

  /** Arithmetic compressed GSW (§4.2, Corollary 6): one sample serving all
    * of `ms`, with weights `w_i = (1/k) Σ_j m_i^(j)`. Error bounded by
    * `sqrt(δ² / E[|S|])` where δ is the range deviation of the group.
    */
  def arithmetic(delta: Double, ms: Seq[String], seed: Long = 104729): GSW = {
    require(ms.nonEmpty, "arithmetic compressed GSW needs at least one measure")
    GSW(delta, ms.map(col).reduce(_ + _) / ms.size, "w=amean", ms, seed)
  }

  /** Geometric compressed GSW (§4.2, Corollary 5): weights
    * `w_i = (Π_j m_i^(j))^{1/k}`. Error bounded by
    * `sqrt(ρ^{(k-1)/k} / E[|S|])` where ρ is the max trend deviation.
    */
  def geometric(delta: Double, ms: Seq[String], seed: Long = 104729): GSW = {
    require(ms.nonEmpty, "geometric compressed GSW needs at least one measure")
    GSW(delta, exp(ms.map(m => log(col(m))).reduce(_ + _) / ms.size),
        "w=gmean", ms, seed)
  }

  /** Expected sample size `E[|S_Δ|] = Σ_i w_i/(Δ+w_i)` (eq. 13), computed
    * with one Spark aggregation.
    */
  def expectedSize(df: DataFrame, weight: Column, delta: Double): Double =
    df.select(sum(weight.cast("double") / (weight.cast("double") + delta)) as "s")
      .head.getDouble(0)

  /** Find Δ so the expected sample size is ≈ `rate × |df|`.
    *
    * Starts from the closed-form `Δ₀ = W/(rate·n)` (exact when `w ≪ Δ`,
    * eq. 13) and refines with multiplicative fixed-point steps
    * `Δ ← Δ · E[|S_Δ|]/target`, each step one Spark aggregation. Three
    * steps land well within a few percent of the target for our data.
    */
  def deltaForRate(df: DataFrame, weight: Column, rate: Double): Double = {
    require(rate > 0 && rate < 1, s"deltaForRate: rate=$rate out of (0,1)")
    val agg = df.select(sum(weight.cast("double")) as "w", count(lit(1)) as "n").head
    val target = rate * agg.getLong(1)
    (1 to 3).foldLeft(agg.getDouble(0) / target) { (delta, _) =>
      delta * expectedSize(df, weight, delta) / target
    }
  }
}
