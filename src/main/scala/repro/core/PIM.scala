package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType
import repro.data.AdSchema.TimeCol

/** PIM (Partwise Independence Model) baseline, after Agarwal et al.,
  * "Forecasting high-dimensional data" (SIGMOD 2010) [8] — the Bayesian
  * competitor the paper evaluates against.
  *
  * Offline, PIM keeps per-day marginals only: for every dimension `a` and
  * value `v`, the measure mass `S_t(a = v)`, plus the day total `S_t`.
  * Online, a conjunctive constraint `C = ⋀_d C_d` is estimated assuming the
  * dimensions partition the measure mass independently:
  *
  * `M̂_t(C) = S_t × Π_d ( S_t(C_d) / S_t )`.
  *
  * This is exact when the constrained dimensions are independent w.r.t. the
  * measure distribution and biased otherwise — our generator correlates
  * age with occupation/device/tags and with measure intensity precisely so
  * this bias shows up, as it does on the paper's real data (Table 1).
  *
  * The marginal cubes are built with one Spark GROUP BY per dimension and
  * collected to the driver (they are tiny: Σ_d |dom(a_d)| × days rows).
  *
  * @param full     the full relation
  * @param measures measures to support
  * @param dims     dimensions the cube covers (constraints must use these)
  */
final class PIM(full: DataFrame, measures: Seq[String], dims: Seq[String])
    extends SeriesSource {

  /** (measure, day) -> day total. */
  private val totals: Map[(String, Int), Double] = {
    val aggs = measures.map(m => sum(col(m).cast("double")) as m)
    val rows = full.groupBy(col(TimeCol))
      .agg(aggs.head, aggs.tail: _*)
      .collect()
    (for {
      r <- rows
      (m, i) <- measures.zipWithIndex
    } yield (m, r.getInt(0)) -> r.getDouble(i + 1)).toMap
  }

  /** dim -> (day, value, measure) -> marginal mass. */
  private val marginals: Map[String, Map[(Int, String, String), Double]] =
    dims.map { d =>
      val aggs = measures.map(m => sum(col(m).cast("double")) as m)
      val rows = full.groupBy(col(TimeCol), col(d).cast("string") as "v")
        .agg(aggs.head, aggs.tail: _*)
        .collect()
      d -> (for {
        r <- rows
        (m, i) <- measures.zipWithIndex
      } yield (r.getInt(0), r.getString(1), m) -> r.getDouble(i + 2)).toMap
    }.toMap

  /** Dimensions whose values compare as numbers, as Catalyst compares them. */
  private val numericDims: Set[String] =
    dims.filter(d => full.schema(d).dataType.isInstanceOf[NumericType]).toSet

  /** Distinct values seen per dimension (for predicate evaluation). */
  private val domains: Map[String, Seq[String]] =
    marginals.map { case (d, m) => d -> m.keysIterator.map(_._2).toSeq.distinct }

  /** Estimate `SUM(measure)` under `c` for one day. */
  def estimate(c: Constraint, measure: String, day: Int): Double = {
    val total = totals.getOrElse((measure, day), 0.0)
    if (total <= 0.0) return 0.0
    val byDim = c.preds.groupBy(_.dim)
    byDim.foldLeft(total) { case (acc, (dim, preds)) =>
      require(marginals.contains(dim), s"PIM cube does not cover dimension '$dim'")
      val mass = domains(dim).iterator
        .filter(v => preds.forall(_.matches(v, numericDims(dim))))
        .map(v => marginals(dim).getOrElse((day, v, measure), 0.0))
        .sum
      acc * (mass / total)
    }
  }

  /** Estimated daily series for a task, PIM-style. */
  def estimateSeries(task: ForecastTask): Array[Double] =
    Array.tabulate(task.trainingDays)(i => estimate(task.constraint, task.measure, task.ts + i))

  override def series(task: ForecastTask): Array[Double] = estimateSeries(task)

  override def spaceRows: Long = cubeRows

  /** Rows the cube stores — PIM's space cost, reported in benches. */
  def cubeRows: Long =
    marginals.valuesIterator.map(m => m.keysIterator.map(k => (k._1, k._2)).toSet.size.toLong).sum +
      totals.keysIterator.map(_._2).toSet.size
}
