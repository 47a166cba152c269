package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Metrics, SeriesSource, TaskGen}
import repro.data.AdSchema
import repro.sampling.{GSW, Priority, Uniform}

/** Exp-IV / Figures 10–15: aggregation error, ARIMA forecast error, ARIMA
  * 90 % interval width, and (on a subset) LSTM forecast error, for every
  * sampler × sampling rate × selectivity on measures Favorite and
  * Impression.
  *
  * Paper findings to reproduce:
  *  - Priority ≈ Opt-GSW, both best (at 4× the space);
  *  - Uniform worst (range-dependent error, heavy tails);
  *  - compressed GSW between the two, approaching Opt-GSW at larger rates;
  *  - larger selectivity ⇒ everyone improves;
  *  - forecast error and interval width track aggregation error.
  */
object Exp4 {

  final case class Row(measure: String, selectivity: Double, paperRate: Double,
                       sampler: String, aggErr: Double, fcErr: Double,
                       width: Double, lstmErr: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val te = cfg.trainDays - 1
    val rowsPerDay = df.count() / cfg.days
    val paperRates = Seq(0.0002, 0.001, 0.005, 0.01)
    val selectivities = Seq(0.005, 0.05)
    val measures = Seq("favorite", "impression")
    def mean(xs: Seq[Double]) = xs.sum / xs.size

    val rows = Seq.newBuilder[Row]
    for (paperRate <- paperRates) {
      val rate = cfg.scaledRate(paperRate)
      val k = math.max(2, (rate * rowsPerDay).round.toInt)
      val sources = Seq[(String, SeriesSource)](
        "Uniform" -> Harness.store(df, Seq(Uniform(rate, AdSchema.Measures))),
        "Priority" -> Harness.store(df, measures.map(m => Priority(k, m))),
        "Opt-GSW" -> Harness.store(df, measures.map(m => GSW.optimal(1.0, m).atRate(df, rate))),
        "C-GSW(arith)" -> Harness.store(df, Seq(GSW.arithmetic(1.0, AdSchema.Measures).atRate(df, rate))),
        "C-GSW(geom)" -> Harness.store(df, Seq(GSW.geometric(1.0, AdSchema.Measures).atRate(df, rate))))
      try for {
        meas <- measures
        sel <- selectivities
        (name, source) <- sources
      } {
        val tasks = gen.tasks(sel, cfg.tasksPerPoint, ts = 0, te = te,
          measures = Seq(meas), forePeriod = cfg.horizon)
        // LSTM only on the subset the paper plots in detail (Fig 12), to
        // keep bench runtime bounded.
        val withLstm = meas == "favorite" && sel == 0.05
        val evals = tasks.map { t =>
          val exact = cache.exact(t)
          val truth = cache.truth(t)
          val est = source.series(t)
          val fc = Harness.arima.fitForecast(est, cfg.horizon, 0.9)
          val lstmErr =
            if (withLstm)
              Metrics.relAggError(Harness.lstm.fitForecast(est, cfg.horizon, 0.9).point, truth)
            else Double.NaN
          (Metrics.relAggError(est, exact),
            Metrics.relAggError(fc.point, truth),
            Metrics.relIntervalWidth(fc, truth),
            lstmErr)
        }
        rows += Row(meas, sel, paperRate, name,
          aggErr = mean(evals.map(_._1)),
          fcErr = mean(evals.map(_._2)),
          width = mean(evals.map(_._3)),
          lstmErr = if (withLstm) mean(evals.map(_._4)) else Double.NaN)
      } finally sources.foreach(_._2.close())
    }

    val out = rows.result()
    val rendered = Harness.renderTable(
      "Exp-IV (Figs 10-15): error vs sampler x rate x selectivity",
      Seq("measure", "sel", "paperRate", "sampler", "agg_err", "arima_err",
        "int_width", "lstm_err"),
      out.map(r => Seq(r.measure, f"${r.selectivity * 100}%.1f%%",
        f"${r.paperRate * 100}%.2f%%", r.sampler, Harness.fmt(r.aggErr),
        Harness.fmt(r.fcErr), Harness.fmt(r.width),
        if (r.lstmErr.isNaN) "-" else Harness.fmt(r.lstmErr))))
    Result(out, rendered)
  }
}
