package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.TaskGen
import repro.exp._

/** Shared bootstrap for the spark-submit entrypoints: one local (or
  * cluster-provided) session, bench-scale data, workload generator and
  * exact-series cache. Scale is controlled by the BENCH_* env vars
  * understood by [[repro.exp.BenchConfig]].
  */
object JobEnv {
  def init(appName: String): (SparkSession, BenchConfig,
      org.apache.spark.sql.DataFrame, TaskGen, SeriesCache) = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val cfg = BenchConfig()
    val df = Harness.data(spark, cfg)
    val gen = new TaskGen(df)
    (spark, cfg, df, gen, new SeriesCache(df))
  }
}

/** `spark-submit --class repro.jobs.RunTable1 <jar>` — prints Table 1. */
object RunTable1 {
  def main(args: Array[String]): Unit = {
    val (spark, cfg, df, gen, cache) = JobEnv.init("flashp-table1")
    println(Table1.run(df, gen, cache, cfg).rendered)
    spark.stop()
  }
}

/** Figure 8 (Exp-II): response-time split. */
object RunExp2 {
  def main(args: Array[String]): Unit = {
    val (spark, cfg, df, gen, _) = JobEnv.init("flashp-exp2")
    println(Exp2.run(df, gen, cfg).rendered)
    spark.stop()
  }
}

/** Figure 9 (Exp-III): forecast error vs training days. */
object RunExp3 {
  def main(args: Array[String]): Unit = {
    val (spark, cfg, df, gen, cache) = JobEnv.init("flashp-exp3")
    println(Exp3.run(df, gen, cache, cfg).rendered)
    spark.stop()
  }
}

/** Figures 10–15 (Exp-IV): error vs sampler × rate × selectivity. */
object RunExp4 {
  def main(args: Array[String]): Unit = {
    val (spark, cfg, df, gen, cache) = JobEnv.init("flashp-exp4")
    println(Exp4.run(df, gen, cache, cfg).rendered)
    spark.stop()
  }
}

/** Figure 16 (Exp-V): space cost under equal accuracy. */
object RunExp5 {
  def main(args: Array[String]): Unit = {
    val (spark, cfg, df, gen, cache) = JobEnv.init("flashp-exp5")
    println(Exp5.run(df, gen, cache, cfg).rendered)
    spark.stop()
  }
}

/** Figure 6: measure grouping vs L1 distance. */
object RunFig6 {
  def main(args: Array[String]): Unit = {
    val (spark, cfg, df, gen, cache) = JobEnv.init("flashp-fig6")
    println(Fig6.run(df, gen, cache, cfg).rendered)
    spark.stop()
  }
}

/** Interactive one-off: run a single FORECAST statement end-to-end on a
  * fresh sample layer, e.g.
  * {{{
  * spark-submit --class repro.jobs.RunForecast <jar> \
  *   "FORECAST SUM(impression) FROM ad WHERE age <= 30 AND gender = 'F' USING (0, 149)"
  * }}}
  */
object RunForecast {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: RunForecast '<FORECAST statement>' [samplingRate]")
    val (spark, cfg, df, _, _) = JobEnv.init("flashp-forecast")
    val task = repro.core.TaskParser.parse(args(0))
    val rate = if (args.length > 1) args(1).toDouble else 0.05
    val store = new repro.core.SampleStore
    val layer = store.add(f"$rate%.3f",
      repro.sampling.GSW.optimal(1.0, task.measure).atRate(df, rate), df)
    val res = repro.core.FlashP.run(task, store)
    println(s"task: ${task.sql}")
    println(s"sample rows: ${layer.rows} (rate ≈ $rate)")
    println(s"agg: ${res.aggMillis} ms, forecast: ${res.forecastMillis} ms")
    println("forecast (point [lo, hi]):")
    res.forecast.point.indices.foreach { h =>
      println(f"  t+${h + 1}: ${res.forecast.point(h)}%.1f " +
        f"[${res.forecast.lo(h)}%.1f, ${res.forecast.hi(h)}%.1f]")
    }
    store.clear()
    spark.stop()
  }
}
