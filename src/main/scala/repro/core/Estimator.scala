package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.data.AdSchema.TimeCol
import repro.sampling.Sampler

/** The online aggregation phase (§2.2, eq. 4): turn a forecasting task into
  * the per-day series `M_ts .. M_te` with ONE Spark SQL aggregation — the
  * `t_e − t_s + 1` point queries of eq. (4) are, as the paper notes,
  * equivalent to a single scan with GROUP BY t, which is exactly how
  * Catalyst executes the plan below.
  */
object Estimator {

  /** Exact series from the full relation: `SUM(measure)` per day under the
    * task constraint; days with no qualifying rows contribute 0.
    */
  def exactSeries(full: DataFrame, task: ForecastTask): Array[Double] =
    series(full, task, col(task.measure).cast("double"))

  /** Estimated series from a sample produced by a [[repro.sampling.Sampler]]:
    * sums the calibrated `est_<m>` column, which is unbiased for the exact
    * constrained sum per day.
    */
  def estimateSeries(sample: DataFrame, task: ForecastTask): Array[Double] =
    series(sample, task, col(Sampler.estCol(task.measure)))

  /** The series for the FUTURE window `(te, te + forePeriod]` from the full
    * relation — ground truth for forecast-error metrics.
    */
  def futureTruth(full: DataFrame, task: ForecastTask): Array[Double] = {
    val shifted = task.copy(ts = task.te + 1, te = task.te + task.forePeriod)
    series(full, shifted, col(task.measure).cast("double"))
  }

  private def series(df: DataFrame, task: ForecastTask,
                     value: org.apache.spark.sql.Column): Array[Double] = {
    val rows = df
      .filter(task.constraint.column &&
        col(TimeCol) >= task.ts && col(TimeCol) <= task.te)
      .groupBy(col(TimeCol))
      .agg(sum(value) as "m")
      .collect()
    val byDay = rows.map(r => r.getInt(0) -> r.getDouble(1)).toMap
    Array.tabulate(task.te - task.ts + 1)(i => byDay.getOrElse(task.ts + i, 0.0))
  }
}

/** Error metrics used throughout the evaluation section. */
object Metrics {

  /** Mean relative error of a series against the truth: `avg_t |M̂_t − M_t| / M_t`
    * (days with M_t = 0 are skipped). Used both for the aggregation error
    * over the training window and for the forecast error over the horizon.
    */
  def relAggError(est: Array[Double], exact: Array[Double]): Double = {
    require(est.length == exact.length, "series length mismatch")
    val terms = est.indices.filter(i => exact(i) != 0.0)
      .map(i => math.abs(est(i) - exact(i)) / math.abs(exact(i)))
    if (terms.isEmpty) 0.0 else terms.sum / terms.size
  }

  /** Forecast-interval width relative to the true values (so widths are
    * comparable across measures), averaged over the horizon.
    */
  def relIntervalWidth(fc: repro.forecast.Forecast, truth: Array[Double]): Double = {
    val terms = truth.indices.filter(i => truth(i) != 0.0)
      .map(i => (fc.hi(i) - fc.lo(i)) / math.abs(truth(i)))
    if (terms.isEmpty) 0.0 else terms.sum / terms.size
  }
}
