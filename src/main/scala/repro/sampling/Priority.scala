package repro.sampling

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.data.AdSchema.TimeCol

/** Priority sampling (Duffield–Lund–Thorup [22]) — the theoretically
  * optimal weighted baseline the paper compares GSW against.
  *
  * Per time partition (samplers run independently per day, which is what
  * gives the estimator its cross-day independence): each row draws
  * `u_i ~ U(0,1]` and gets priority `q_i = m_i / u_i`. The sample is the
  * `k` highest-priority rows; with `τ` the (k+1)-th priority, the
  * calibrated measure of a sampled row is `max(m_i, τ)`, which is unbiased
  * for subset sums and has `RSTD = sqrt(1/(k−1))` [38].
  *
  * Unlike GSW, the sampling distribution is tied to one measure, so
  * multi-measure workloads need one priority sample per measure — the
  * space-cost disadvantage Exp-V quantifies.
  *
  * @param k       sample size per time partition
  * @param measure the measure the priorities are drawn from (and the only
  *                one this sample can estimate)
  * @param seed    deterministic seed for the uniform draws
  */
final case class Priority(k: Int, measure: String, seed: Long = 104723) extends Sampler {
  require(k >= 2, s"Priority: k=$k must be >= 2 for the estimator to exist")

  override def name: String = s"Priority($measure, k=$k)"
  override def measures: Seq[String] = Seq(measure)

  override def sample(df: DataFrame): DataFrame = {
    val prioritized = df
      // rand() ∈ [0,1); clamp away from 0 so q = m/u is finite.
      .withColumn("pri_q", col(measure) / greatest(rand(seed), lit(1e-12)))
    val byPriority = Window.partitionBy(TimeCol).orderBy(desc("pri_q"))
    val ranked = prioritized.withColumn("pri_rank", row_number().over(byPriority))
    // τ per day = the (k+1)-th priority; days with ≤ k rows keep everything
    // and are estimated exactly (τ treated as 0).
    val tau = ranked.filter(col("pri_rank") === k + 1)
      .select(col(TimeCol), col("pri_q") as "pri_tau")
    ranked.filter(col("pri_rank") <= k)
      .join(tau, Seq(TimeCol), "left")
      .withColumn(Sampler.estCol(measure),
        greatest(col(measure).cast("double"), coalesce(col("pri_tau"), lit(0.0))))
      .drop("pri_q", "pri_rank", "pri_tau")
  }
}
