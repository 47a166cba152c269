package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.forecast.{ArimaForecaster, Forecast, Forecaster, LstmForecaster}
import repro.sampling.Sampler

/** A sample materialized in the "OLAP engine" (here: a cached Spark
  * DataFrame — our stand-in for the paper's Hologres in-memory store).
  *
  * @param layer   layer name, e.g. "0.1%"
  * @param sampler the sampler that produced it
  * @param df      cached sample relation with `est_*` columns
  * @param rows    materialized sample row count (space cost)
  */
final case class StoredSample(layer: String, sampler: Sampler, df: DataFrame, rows: Long)
    extends SeriesSource {
  override def spaceRows: Long = rows
  override def series(task: ForecastTask): Array[Double] = Estimator.estimateSeries(df, task)
  override def close(): Unit = df.unpersist()
}

/** Multi-layer sample store (§3.2, §5): FlashP keeps samples of several
  * sizes (increasing Δ) per relation and picks a layer per the caller's
  * latency/accuracy requirement. Adding a layer runs the offline sampler,
  * caches the result in memory and materializes it — after that, online
  * queries never touch the base table.
  *
  * As a [[SeriesSource]] the store answers a task from the first layer that
  * carries the task's measure, and its space cost is that of all layers.
  */
final class SampleStore extends SeriesSource {
  private var layers: Vector[StoredSample] = Vector.empty

  /** Draw, cache and register a layer. */
  def add(layer: String, sampler: Sampler, full: DataFrame): StoredSample = {
    val df = sampler.sample(full).persist(StorageLevel.MEMORY_ONLY)
    val stored = StoredSample(layer, sampler, df, df.count())
    layers :+= stored
    stored
  }

  def get(layer: String): StoredSample =
    layers.find(_.layer == layer).getOrElse(
      throw new NoSuchElementException(
        s"no sample layer '$layer'; have ${layers.map(_.layer).mkString(", ")}"))

  def all: Seq[StoredSample] = layers

  def clear(): Unit = { layers.foreach(_.close()); layers = Vector.empty }

  override def spaceRows: Long = layers.map(_.rows).sum

  override def series(task: ForecastTask): Array[Double] = {
    val layer = layers.find(_.sampler.measures.contains(task.measure)).getOrElse(
      throw new NoSuchElementException(
        s"no sample layer carries measure '${task.measure}'; have " +
          layers.map(l => s"${l.layer} (${l.sampler.measures.mkString(", ")})").mkString(", ")))
    layer.series(task)
  }

  override def close(): Unit = clear()
}

/** One processed forecasting task, with the phase timings the paper's
  * Exp-II reports (aggregation is the bottleneck; model fitting is cheap
  * for ARIMA, heavier for LSTM).
  */
final case class PipelineResult(task: ForecastTask, series: Array[Double],
                                forecast: Forecast, aggMillis: Long,
                                forecastMillis: Long)

/** End-to-end FlashP pipeline (§2.2, §5): get the training series from a
  * [[SeriesSource]] (a sample, the full table or PIM), then fit the
  * requested forecasting model and predict `FORE_PERIOD` points.
  */
object FlashP {

  /** Resolve the OPTION(MODEL=...) name to a forecaster. */
  def forecasterFor(model: String): Forecaster = model.toLowerCase match {
    case "arima" => ArimaForecaster()
    case "lstm"  => LstmForecaster()
    case other   => throw new IllegalArgumentException(
      s"unknown model '$other' — supported: arima, lstm")
  }

  /** Process a task against a stored sample layer. */
  def runOnSample(task: ForecastTask, sample: StoredSample,
                  level: Double = 0.9): PipelineResult = run(task, sample, level)

  /** Process a task by scanning the full relation ("Full" in Table 1). */
  def runOnFull(task: ForecastTask, full: DataFrame,
                level: Double = 0.9): PipelineResult = run(task, FullScan(full), level)

  /** Process a task: take its training series from `source`, then fit the
    * task's model and forecast at interval `level`.
    */
  def run(task: ForecastTask, source: SeriesSource, level: Double = 0.9): PipelineResult = {
    val t0 = System.nanoTime()
    val series = source.series(task)
    val t1 = System.nanoTime()
    val forecast = forecasterFor(task.model).fitForecast(series, task.forePeriod, level)
    val t2 = System.nanoTime()
    PipelineResult(task, series, forecast,
      aggMillis = (t1 - t0) / 1000000, forecastMillis = (t2 - t1) / 1000000)
  }
}
