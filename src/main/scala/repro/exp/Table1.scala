package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.data.AdSchema
import repro.sampling.{GSW, Uniform}

/** Exp-I / Table 1: average ARIMA forecast error per measure for
  * Full / PIM / Uniform / Opt-GSW / Arithmetic-compressed-GSW at the
  * paper's 0.1 % sampling rate (scaled per [[BenchConfig.rateScale]]),
  * over random tasks with selectivity 0.5 %–10 %.
  */
object Table1 {

  /** One table row: mean relative forecast error per method for a measure. */
  final case class Row(measure: String, full: Double, pim: Double,
                       uniform: Double, optGsw: Double, cGsw: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val rate = cfg.equivRate(0.001) // paper 0.1% of 15M/day, by equal sample rows
    val te = cfg.trainDays - 1

    // Paper: 20 random tasks, selectivity 0.5%..10%, measures mixed.
    // Measures are round-robined GLOBALLY across the selectivity bands so
    // every measure gets tasks even at small BENCH_TASKS.
    val tasks: Seq[ForecastTask] =
      Seq(0.005, 0.02, 0.05, 0.10).flatMap { sel =>
        gen.tasks(sel, cfg.tasksPerPoint, ts = 0, te = te, forePeriod = cfg.horizon)
      }.zipWithIndex.map { case (t, i) =>
        t.copy(measure = AdSchema.Measures(i % AdSchema.Measures.size))
      }

    val sources: Seq[(String, SeriesSource)] = Seq(
      "Full" -> FullScan(df),
      "PIM" -> new PIM(df, AdSchema.Measures, AdSchema.Dimensions),
      "Uniform" -> Harness.store(df, Seq(Uniform(rate, AdSchema.Measures))),
      "Opt-GSW" -> Harness.store(df, AdSchema.Measures.map(m => GSW.optimal(1.0, m).atRate(df, rate))),
      "C-GSW" -> Harness.store(df, Seq(GSW.arithmetic(1.0, AdSchema.Measures).atRate(df, rate))))

    // errs(source)(measure) = forecast errors across that measure's tasks
    val errs = sources.map(_._1 -> AdSchema.Measures.map(_ ->
      scala.collection.mutable.ArrayBuffer.empty[Double]).toMap).toMap
    try {
      for (task <- tasks; (name, source) <- sources) {
        val fc = Harness.arima.fitForecast(source.series(task), task.forePeriod, 0.9)
        errs(name)(task.measure) += Metrics.relAggError(fc.point, cache.truth(task))
      }
    } finally sources.foreach(_._2.close())

    def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size
    val rows = AdSchema.Measures.map { meas =>
      Row(meas,
        full = mean(errs("Full")(meas).toSeq),
        pim = mean(errs("PIM")(meas).toSeq),
        uniform = mean(errs("Uniform")(meas).toSeq),
        optGsw = mean(errs("Opt-GSW")(meas).toSeq),
        cGsw = mean(errs("C-GSW")(meas).toSeq))
    }

    val rendered = Harness.renderTable(
      f"Table 1: mean relative forecast error (ARIMA), paper rate 0.1%% -> ours ${rate * 100}%.2f%%, " +
        s"${tasks.size} tasks, selectivity 0.5%-10%",
      Seq("measure", "Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"),
      rows.map(r => Seq(r.measure, Harness.fmt(r.full), Harness.fmt(r.pim),
        Harness.fmt(r.uniform), Harness.fmt(r.optGsw), Harness.fmt(r.cGsw))))
    Result(rows, rendered)
  }
}
