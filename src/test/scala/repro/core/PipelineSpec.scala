package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkFunSpec, TestData}
import repro.sampling.{GSW, Sampler}

/** End-to-end FlashP pipeline tests on the 90-day fixture: sample store,
  * estimation, forecasting, timings, and the full SQL-string-to-forecast
  * path for both ARIMA and LSTM.
  */
class PipelineSpec extends SparkFunSpec {

  private lazy val ad = TestData.adLong // 90 days × 150 rows/day

  private def mkTask(model: String = "arima") = ForecastTask(
    "impression", "ad",
    Constraint(Seq(Pred("gender", "=", "F", isString = true))),
    ts = 0, te = 79, model = model, forePeriod = 7)

  test("SampleStore: add materializes and records the row count") {
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.05)
    val stored = store.add("5%", GSW.optimal(delta, "impression", seed = 3001), ad)
    assert(stored.rows == stored.df.count())
    assert(store.get("5%").eq(stored))
    store.clear()
    assert(store.all.isEmpty)
  }

  test("SampleStore: unknown layer raises a helpful error") {
    val store = new SampleStore
    val e = intercept[NoSuchElementException] { store.get("nope") }
    assert(e.getMessage.contains("nope"))
  }

  test("SampleStore as a source answers each measure from the layer that carries it") {
    val store = new SampleStore
    val ms = Seq("impression", "favorite")
    val layers = ms.map(m => m -> store.add(s"opt-$m",
      GSW.optimal(1.0, m, seed = 3006).atRate(ad, 0.1), ad)).toMap
    for (m <- ms) {
      val task = mkTask().copy(measure = m)
      assert(store.series(task).sameElements(Estimator.estimateSeries(layers(m).df, task)))
    }
    assert(store.spaceRows == layers.values.map(_.rows).sum)
    store.close()
    assert(store.all.isEmpty)
  }

  test("SampleStore as a source names the measure and the layers when none carries it") {
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.05)
    store.add("opt-imp", GSW.optimal(delta, "impression", seed = 3007), ad)
    val e = intercept[NoSuchElementException] {
      store.series(mkTask().copy(measure = "cart"))
    }
    assert(e.getMessage.contains("cart") && e.getMessage.contains("opt-imp"))
    store.clear()
  }

  test("runOnFull produces a 7-point forecast from exact aggregations") {
    val res = FlashP.runOnFull(mkTask(), ad)
    assert(res.series.length == 80)
    assert(res.forecast.horizon == 7)
    assert(res.aggMillis >= 0 && res.forecastMillis >= 0)
    assert(res.forecast.point.forall(v => java.lang.Double.isFinite(v) && v > 0))
  }

  test("runOnSample: 20% GSW estimates give a series close to exact") {
    // adLong has only 150 rows/day, so a realistic-looking rate would leave
    // a handful of in-constraint rows per day; 20% keeps the per-day RSTD
    // in the ~20% range this threshold reflects.
    val task = mkTask()
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.20)
    val stored = store.add("20%", GSW.optimal(delta, "impression", seed = 3002), ad)
    val res = FlashP.runOnSample(task, stored)
    val exact = Estimator.exactSeries(ad, task)
    val aggErr = Metrics.relAggError(res.series, exact)
    assert(aggErr < 0.35, s"agg error $aggErr")
    assert(res.forecast.horizon == 7)
    store.clear()
  }

  test("runOnSample with compressed GSW serves all four measures") {
    val store = new SampleStore
    val ms = repro.data.AdSchema.Measures
    val delta = GSW.deltaForRate(ad, ms.map(col).reduce(_ + _) / ms.size, 0.05)
    val stored = store.add("c5%", GSW.arithmetic(delta, ms, seed = 3003), ad)
    for (m <- ms) {
      val res = FlashP.runOnSample(mkTask().copy(measure = m), stored)
      assert(res.series.length == 80 && res.forecast.horizon == 7)
    }
    store.clear()
  }

  test("runOnPim completes and tracks the trend roughly") {
    val pim = new PIM(ad, Seq("impression"), repro.data.AdSchema.Dimensions)
    val res = FlashP.run(mkTask(), pim)
    val exact = Estimator.exactSeries(ad, mkTask())
    // Single-dimension constraint ⇒ PIM is exact here.
    assert(Metrics.relAggError(res.series, exact) < 1e-9)
  }

  test("PIM bias persists where GSW's error averages out (correlated constraint)") {
    // The structural difference Table 1 reflects: GSW is unbiased, so its
    // error shrinks under averaging over independent samples; PIM's
    // independence assumption leaves a bias no averaging removes. Use the
    // denser 20-day fixture to keep per-sample noise moderate.
    val dense = TestData.ad
    val task = ForecastTask("impression", "ad",
      Constraint(Seq(Pred("age", "<=", "34", isString = false),
                     Pred("device", "=", "mobile", isString = true))),
      ts = 0, te = 19)
    val exactTotal = Estimator.exactSeries(dense, task).sum
    val pim = new PIM(dense, Seq("impression"), repro.data.AdSchema.Dimensions)
    val pimDev = math.abs(pim.estimateSeries(task).sum - exactTotal) / exactTotal
    val delta = GSW.deltaForRate(dense, col("impression"), 0.05)
    val gswMean = (3201 to 3210).map { seed =>
      val s = GSW.optimal(delta, "impression", seed).sample(dense)
      Estimator.estimateSeries(s, task).sum
    }.sum / 10.0
    val gswDev = math.abs(gswMean - exactTotal) / exactTotal
    assert(pimDev > 0.05, s"expected persistent PIM bias, got $pimDev")
    assert(gswDev < pimDev, s"averaged GSW dev $gswDev should undercut PIM bias $pimDev")
  }

  test("full SQL string to forecast (ARIMA)") {
    val task = TaskParser.parse(
      "FORECAST SUM(impression) FROM ad WHERE age <= 40 AND gender = 'F' USING (0, 79) " +
        "OPTION (MODEL = 'arima', FORE_PERIOD = 7)")
    val res = FlashP.runOnFull(task, ad)
    assert(res.forecast.horizon == 7)
  }

  test("full SQL string to forecast (LSTM)") {
    val task = TaskParser.parse(
      "FORECAST SUM(impression) FROM ad USING (0, 79) OPTION (MODEL = 'lstm')")
    val res = FlashP.runOnFull(task, ad)
    assert(res.forecast.horizon == 7)
    assert(res.forecast.point.forall(java.lang.Double.isFinite))
  }

  test("forecast is in the right ballpark of the true future (sanity)") {
    val task = mkTask()
    val res = FlashP.runOnFull(task, ad)
    val truth = Estimator.futureTruth(ad, task)
    val err = Metrics.relAggError(res.forecast.point, truth)
    assert(err < 0.5, s"forecast error $err vs truth ${truth.toSeq}")
  }

  test("sampling reduces aggregation latency vs the full scan (Exp-II shape)") {
    // On a tiny local fixture absolute times are noisy; assert the weak
    // ordering over a few repetitions rather than a hard factor.
    val task = mkTask()
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.01)
    val stored = store.add("1%", GSW.optimal(delta, "impression", seed = 3005), ad)
    val fullMs = (1 to 3).map(_ => FlashP.runOnFull(task, ad).aggMillis).min
    val sampMs = (1 to 3).map(_ => FlashP.runOnSample(task, stored).aggMillis).min
    assert(sampMs <= fullMs * 3,
      s"sample path ($sampMs ms) should not be slower than full scan ($fullMs ms) by 3x")
    store.clear()
  }

  test("unknown model name rejected") {
    intercept[IllegalArgumentException] { FlashP.forecasterFor("prophet") }
  }

  test("estimation preserves unbiasedness through the whole pipeline (mean over seeds)") {
    val task = mkTask().copy(te = 19) // 20 days to keep it quick
    val exact = Estimator.exactSeries(ad, task)
    val delta = GSW.deltaForRate(ad, col("impression"), 0.02)
    val means = (3101 to 3110).map { seed =>
      val s = GSW.optimal(delta, "impression", seed).sample(ad)
      Estimator.estimateSeries(s, task).sum
    }
    val avg = means.sum / means.size
    assert(math.abs(avg - exact.sum) / exact.sum < 0.15,
      s"pipeline estimate mean ${avg} vs exact ${exact.sum}")
  }
}
