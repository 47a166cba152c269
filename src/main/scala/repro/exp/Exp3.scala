package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Metrics, TaskGen}
import repro.sampling.GSW

/** Exp-III / Figure 9: forecast error vs number of time stamps (days) used
  * to fit the model, for Opt-GSW at several sampling rates, selectivity
  * 5 %, measure Impression, both ARIMA and LSTM.
  *
  * Paper finding to reproduce: more training days help (150 best in their
  * range), which is exactly why fast aggregation matters (more days = more
  * aggregation queries).
  */
object Exp3 {

  final case class Row(trainDays: Int, paperRate: Double,
                       arimaErr: Double, lstmErr: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val te = cfg.trainDays - 1
    val baseTasks = gen.tasks(0.05, cfg.tasksPerPoint, ts = 0, te = te,
      measures = Seq("impression"), forePeriod = cfg.horizon)
    val paperRates = Seq(0.001, 0.01)
    val trainLens = Seq(30, 60, 90, 120, cfg.trainDays).filter(_ <= cfg.trainDays).distinct

    val sources = paperRates.map { pr =>
      pr -> Harness.store(df, Seq(GSW.optimal(1.0, "impression").atRate(df, cfg.scaledRate(pr))))
    }

    val rows = try for {
      len <- trainLens
      (pr, source) <- sources
    } yield {
      // Shrink the window from the left so every row forecasts the same
      // 7 future days (as in the paper, which always predicts "the next 7").
      val tasks = baseTasks.map(t => t.copy(ts = te - len + 1))
      val (ae, le) = tasks.map { t =>
        val truth = cache.truth(t)
        val est = source.series(t)
        val a = Harness.arima.fitForecast(est, cfg.horizon, 0.9)
        val l = Harness.lstm.fitForecast(est, cfg.horizon, 0.9)
        (Metrics.relAggError(a.point, truth), Metrics.relAggError(l.point, truth))
      }.unzip
      Row(len, pr, ae.sum / ae.size, le.sum / le.size)
    } finally sources.foreach(_._2.close())

    val rendered = Harness.renderTable(
      "Exp-III (Fig 9): forecast error vs training days (Opt-GSW, selectivity 5%, Impression)",
      Seq("trainDays", "paperRate", "ARIMA_err", "LSTM_err"),
      rows.map(r => Seq(r.trainDays.toString, f"${r.paperRate * 100}%.2f%%",
        Harness.fmt(r.arimaErr), Harness.fmt(r.lstmErr))))
    Result(rows, rendered)
  }
}
