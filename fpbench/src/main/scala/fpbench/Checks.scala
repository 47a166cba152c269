package fpbench

import org.apache.spark.sql.DataFrame
import repro.forecast.Forecast

/** Reference answers the benchmark computes itself, outside the timed
  * region, from its own SQL strings.
  */
object Checks {

  /** Tolerance of check (a): sample series against the benchmark's own
    * Horvitz–Thompson sums. Only the summation order may differ.
    */
  val HtTolerance = 1e-9

  /** Tasks per reference query: one conditional sum per task and day. */
  private val Chunk = 100

  /** Per task, per day of `[from(task), to(task)]`: the sum of `value(task)`
    * over the rows of `df` matching the task constraint, and the number
    * of those rows. One `GROUP BY t` query serves up to [[Chunk]] tasks.
    */
  def daySums(df: DataFrame, tasks: Seq[BenchTask], value: BenchTask => String,
              from: BenchTask => Int, to: BenchTask => Int): Map[Int, (Array[Double], Array[Long])] = {
    val view = s"fpbench_ref_${System.identityHashCode(df)}"
    df.createOrReplaceTempView(view)
    tasks.grouped(Chunk).flatMap { chunk =>
      val cols = chunk.zipWithIndex.flatMap { case (t, i) =>
        val cond = s"(${t.cond}) AND t BETWEEN ${from(t)} AND ${to(t)}"
        Seq(s"SUM(CASE WHEN $cond THEN ${value(t)} END) AS s$i",
            s"COUNT(CASE WHEN $cond THEN 1 END) AS n$i")
      }
      val rows = df.sparkSession.sql(
        s"SELECT t, ${cols.mkString(", ")} FROM $view GROUP BY t").collect()
      chunk.zipWithIndex.map { case (t, i) =>
        val len = to(t) - from(t) + 1
        val sums = new Array[Double](len)
        val counts = new Array[Long](len)
        rows.foreach { r =>
          val d = r.getInt(0) - from(t)
          if (d >= 0 && d < len && !r.isNullAt(1 + 2 * i)) {
            sums(d) = r.getAs[Number](1 + 2 * i).doubleValue
            counts(d) = r.getLong(2 + 2 * i)
          }
        }
        t.id -> (sums, counts)
      }
    }.toMap
  }

  /** Check (a): equal within [[HtTolerance]], relative to the larger value. */
  def closeSeries(got: Array[Double], want: Array[Double]): Boolean =
    got.length == want.length && got.indices.forall { i =>
      val scale = math.max(math.abs(got(i)), math.abs(want(i)))
      math.abs(got(i) - want(i)) <= HtTolerance * scale
    }

  /** Check (b): bit-for-bit equal. */
  def equalSeries(got: Array[Double], want: Array[Double]): Boolean =
    got.length == want.length && got.indices.forall(i => got(i) == want(i))

  /** Check (c): FORE_PERIOD finite points, each inside its band. */
  def saneForecast(fc: Forecast, forePeriod: Int): Boolean =
    fc.point.length == forePeriod && fc.point.indices.forall { h =>
      val (lo, p, hi) = (fc.lo(h), fc.point(h), fc.hi(h))
      Seq(lo, p, hi).forall(java.lang.Double.isFinite) && lo <= p && p <= hi
    }

  /** Mean of `|got − want| / |want|` over the points with `want ≠ 0`. */
  def meanRelError(got: Array[Double], want: Array[Double]): Double = {
    val terms = want.indices.filter(i => want(i) != 0.0)
      .map(i => math.abs(got(i) - want(i)) / math.abs(want(i)))
    if (terms.isEmpty) 0.0 else terms.sum / terms.size
  }

  /** Check (d): two samples hold the same rows, keyed by day and uniform
    * draw, with the same calibrated estimates to [[HtTolerance]].
    */
  def sameSample(got: DataFrame, want: DataFrame, estCols: Seq[String],
                 keyCols: Seq[String]): Boolean = {
    val cols = keyCols ++ estCols
    def rows(df: DataFrame): Array[Seq[Any]] =
      df.selectExpr(cols: _*).collect().map(_.toSeq).sortBy(_.take(keyCols.size).mkString("|"))
    val (a, b) = (rows(got), rows(want))
    a.length == b.length && a.indices.forall { i =>
      a(i).take(keyCols.size) == b(i).take(keyCols.size) &&
        closeSeries(a(i).drop(keyCols.size).map(_.asInstanceOf[Double]).toArray,
                    b(i).drop(keyCols.size).map(_.asInstanceOf[Double]).toArray)
    }
  }
}
