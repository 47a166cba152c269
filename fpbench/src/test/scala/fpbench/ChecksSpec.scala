package fpbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Estimator, TaskParser}
import repro.forecast.Forecast

class ChecksSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder.master("local[2]")
    .config("spark.ui.enabled", "false").config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  /** A hand-built 10-row sample layer: (t, age, gender, impression, est_impression). */
  private lazy val layer = spark.createDataFrame(Seq(
    (0, 25, "F", 3L, 30.0), (0, 40, "M", 5L, 12.5), (0, 22, "F", 1L, 40.0),
    (1, 31, "F", 2L, 8.0), (1, 19, "M", 7L, 7.5), (1, 28, "F", 4L, 16.0),
    (2, 45, "F", 6L, 9.0), (2, 27, "F", 2L, 22.0), (3, 33, "M", 1L, 50.0),
    (3, 21, "F", 9L, 10.5),
  )).toDF("t", "age", "gender", "impression", "est_impression")

  private val task = BenchTask(0,
    "FORECAST SUM(impression) FROM ad WHERE age <= 30 AND gender = 'F' USING (0, 3) " +
      "OPTION (MODEL = 'arima', FORE_PERIOD = 7)",
    "impression", "age <= 30 AND gender = 'F'", 0, 3, 7, "arima", "opt-impression", 0.5)

  test("HT recomputation sums est_<m> of the matching rows per day") {
    val (sums, counts) = Checks.daySums(layer, Seq(task), t => s"est_${t.measure}", _.ts, _.te)(0)
    assert(sums.toSeq == Seq(70.0, 16.0, 22.0, 10.5))
    assert(counts.toSeq == Seq(2L, 1L, 1L, 1L))
  }

  test("the estimator's series on the layer passes check (a)") {
    val series = Estimator.estimateSeries(layer, TaskParser.parse(task.stmt))
    val (sums, _) = Checks.daySums(layer, Seq(task), t => s"est_${t.measure}", _.ts, _.te)(0)
    assert(Checks.closeSeries(series, sums))
    assert(!Checks.closeSeries(series.updated(2, series(2) * (1 + 1e-6)), sums))
  }

  test("exact reference sums the measure itself, and a window limits the days") {
    val (sums, _) = Checks.daySums(layer, Seq(task), _.measure, _ => 1, _ => 2)(0)
    assert(sums.toSeq == Seq(4.0, 2.0))
    assert(Checks.equalSeries(Array(4.0, 2.0), sums))
  }

  test("forecast check wants FORE_PERIOD finite points inside their band") {
    val fc = Forecast(Array(1.0, 2.0), Array(0.0, 1.0), Array(2.0, 3.0))
    assert(Checks.saneForecast(fc, 2))
    assert(!Checks.saneForecast(fc, 3))
    assert(!Checks.saneForecast(fc.copy(point = Array(1.0, Double.NaN)), 2))
    assert(!Checks.saneForecast(fc.copy(point = Array(1.0, 3.5)), 2))
  }
}
