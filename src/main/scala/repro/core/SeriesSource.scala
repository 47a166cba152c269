package repro.core

import org.apache.spark.sql.DataFrame

/** Where a task's training series comes from (§3.2, §5): a sample layer, a
  * multi-layer [[SampleStore]], the full relation, or the PIM cube. Both
  * [[FlashP]] and the experiment drivers answer tasks through this one type.
  */
trait SeriesSource {

  /** Rows the source keeps online: sample rows, PIM cube rows, or 0 for the
    * full relation (which lives in the warehouse, not in memory).
    */
  def spaceRows: Long

  /** The per-day series `M_ts .. M_te` of `task`, exact or estimated. */
  def series(task: ForecastTask): Array[Double]

  /** Release whatever the source caches. */
  def close(): Unit = ()
}

/** The exact scan of the full relation ("Full" in Table 1). */
final case class FullScan(df: DataFrame) extends SeriesSource {
  override def spaceRows: Long = 0L
  override def series(task: ForecastTask): Array[Double] = Estimator.exactSeries(df, task)
}
