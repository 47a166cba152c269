package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkFunSpec, TestData}

/** Tests for the PIM baseline [8]: exactness under true partwise
  * independence, bias under correlation (the effect Table 1 shows), cube
  * contents (oracle-checked), and error handling.
  */
class PIMSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad

  /** A relation engineered so dimensions a and b are EXACTLY independent
    * w.r.t. the (unit) measure mass: counts factorize as n(a)×n(b).
    */
  private lazy val independent = {
    val s = spark
    import s.implicits._
    val rows = for {
      t <- 0 until 3
      (a, na) <- Seq(("x", 1), ("y", 3))
      (b, nb) <- Seq(("u", 2), ("v", 5))
      _ <- 0 until na * nb
    } yield (t, a, b, 1L)
    rows.toDF("t", "a", "b", "m").cache()
  }

  test("exact on independent dimensions: single-dim constraint") {
    val pim = new PIM(independent, Seq("m"), Seq("a", "b"))
    val c = Constraint(Seq(Pred("a", "=", "x", isString = true)))
    // day total = (1+3)(2+5) = 28; mass(a=x) = 1×7 = 7.
    assert(pim.estimate(c, "m", 0) == 7.0)
  }

  test("exact on independent dimensions: two-dim conjunction") {
    val pim = new PIM(independent, Seq("m"), Seq("a", "b"))
    val c = Constraint(Seq(
      Pred("a", "=", "y", isString = true), Pred("b", "=", "v", isString = true)))
    // truth: 3×5 = 15; PIM: 28 × (21/28) × (20/28) = 15 — exact.
    assert(math.abs(pim.estimate(c, "m", 1) - 15.0) < 1e-9)
  }

  test("PIM series equals exact series on the independent relation") {
    val pim = new PIM(independent, Seq("m"), Seq("a", "b"))
    val task = ForecastTask("m", "ind",
      Constraint(Seq(Pred("a", "=", "x", isString = true),
                     Pred("b", "=", "u", isString = true))), 0, 2)
    val est = pim.estimateSeries(task)
    val exact = Estimator.exactSeries(independent, task)
    assert(est.indices.forall(i => math.abs(est(i) - exact(i)) < 1e-9),
      s"${est.toSeq} vs ${exact.toSeq}")
  }

  test("unconstrained estimate returns the day total") {
    val pim = new PIM(independent, Seq("m"), Seq("a", "b"))
    assert(pim.estimate(Constraint(Nil), "m", 0) == 28.0)
  }

  test("missing day estimates to 0") {
    val pim = new PIM(independent, Seq("m"), Seq("a", "b"))
    assert(pim.estimate(Constraint(Nil), "m", 999) == 0.0)
  }

  test("constraint on an uncovered dimension throws") {
    val pim = new PIM(independent, Seq("m"), Seq("a"))
    intercept[IllegalArgumentException] {
      pim.estimate(Constraint(Seq(Pred("b", "=", "u", isString = true))), "m", 0)
    }
  }

  test("oracle: PIM per-dimension marginals match DuckDB group-by") {
    // The cube's (t, gender) marginal for impression must equal a direct
    // group-by — verified by comparing Spark's aggregation with DuckDB and
    // the PIM estimate of a single-value constraint against both.
    val sparkDf = ad.groupBy("t", "gender").agg(sum("impression") as "mass")
      .select(col("t").cast("string") as "t", col("gender"), col("mass"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT t, gender, SUM(CAST(impression AS BIGINT)) AS mass
        |FROM ad GROUP BY t, gender""".stripMargin,
      "ad" -> ad)
    val pim = new PIM(ad, Seq("impression"), Seq("gender"))
    val direct = ad.filter(col("gender") === "F" && col("t") === 0)
      .agg(sum("impression")).head.getLong(0).toDouble
    val est = pim.estimate(Constraint(Seq(Pred("gender", "=", "F", isString = true))),
      "impression", 0)
    assert(math.abs(est - direct) < 1e-6,
      "single-dimension PIM estimate must be exact (it IS the marginal)")
  }

  test("range predicates aggregate marginal values numerically") {
    val pim = new PIM(ad, Seq("impression"), Seq("age"))
    val est = pim.estimate(
      Constraint(Seq(Pred("age", "<=", "40", isString = false))), "impression", 2)
    val direct = ad.filter(col("age") <= 40 && col("t") === 2)
      .agg(sum("impression")).head.getLong(0).toDouble
    assert(math.abs(est - direct) < 1e-6,
      "single-dim range estimate must be exact")
  }

  test("PIM is biased on correlated dimensions (ad data)") {
    val pim = new PIM(ad, Seq("impression"), Seq("age", "device"))
    // age and device are correlated (young ⇒ mobile) AND both correlate
    // with impression intensity, so the product form must misestimate.
    val c = Constraint(Seq(Pred("age", "<=", "34", isString = false),
                           Pred("device", "=", "mobile", isString = true)))
    val errs = (0 until 10).map { day =>
      val direct = ad.filter(col("age") <= 34 && col("device") === "mobile" &&
          col("t") === day)
        .agg(sum("impression")).head.getLong(0).toDouble
      math.abs(pim.estimate(c, "impression", day) - direct) / direct
    }
    val meanErr = errs.sum / errs.size
    assert(meanErr > 0.05, s"expected visible PIM bias, got $meanErr")
  }

  test("a quoted literal on a numeric dimension compares as a number, as in Catalyst") {
    val pim = new PIM(ad, Seq("impression"), Seq("city"))
    for (pred <- Seq(Pred("city", "<=", "5", isString = false),
                     Pred("city", "<=", "5", isString = true))) {
      val task = ForecastTask("impression", "ad", Constraint(Seq(pred)), 0, 19)
      // Single-dimension constraint ⇒ PIM is exact.
      val err = Metrics.relAggError(pim.estimateSeries(task), Estimator.exactSeries(ad, task))
      assert(err < 1e-9, s"PIM disagrees with Catalyst on ${pred.sql}: relative error $err")
    }
  }

  test("cubeRows reports the marginal cube's size") {
    val pim = new PIM(independent, Seq("m"), Seq("a", "b"))
    // 3 days × (2 a-values + 2 b-values) + 3 day totals = 15.
    assert(pim.cubeRows == 15L)
  }

  test("supports multiple measures in one cube") {
    val pim = new PIM(ad, Seq("impression", "click"), Seq("gender"))
    val c = Constraint(Seq(Pred("gender", "=", "M", isString = true)))
    val imp = pim.estimate(c, "impression", 1)
    val clk = pim.estimate(c, "click", 1)
    assert(imp > clk, "impressions outnumber clicks by construction")
  }
}
