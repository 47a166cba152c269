package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Metrics, TaskGen}
import repro.sampling.{GSW, Grouping}

/** Figure 6 (§4.2): for each of the three ways to split the four measures
  * into two pairs, the L1 distance between each measure and its group's
  * sampling-weight vector (arithmetic mean of the group), and the resulting
  * GSW aggregation error — the correlation-metric evidence behind the
  * k-center grouping heuristic.
  */
object Fig6 {

  final case class Row(grouping: String, measure: String, l1: Double, aggErr: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  val Groupings: Seq[Seq[Seq[String]]] = Seq(
    Seq(Seq("impression", "click"), Seq("favorite", "cart")),
    Seq(Seq("impression", "favorite"), Seq("click", "cart")),
    Seq(Seq("impression", "cart"), Seq("click", "favorite")))

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val te = cfg.trainDays - 1
    val rate = cfg.scaledRate(0.001)
    def mean(xs: Seq[Double]) = xs.sum / xs.size

    val rows = Groupings.flatMap { grouping =>
      val label = grouping.map(_.map(_.take(3)).mkString("+")).mkString(" / ")
      grouping.flatMap { group =>
        val sampler = GSW.arithmetic(1.0, group).atRate(df, rate)
        val store = Harness.store(df, Seq(sampler))
        try group.map { measure =>
          val tasks = gen.tasks(0.05, cfg.tasksPerPoint, ts = 0, te = te,
            measures = Seq(measure), forePeriod = cfg.horizon)
          val err = mean(tasks.map(t =>
            Metrics.relAggError(store.series(t), cache.exact(t))))
          Row(label, measure, Grouping.l1ToWeight(df, measure, sampler.weight), err)
        } finally store.close()
      }
    }

    val rendered = Harness.renderTable(
      "Fig 6: grouping choice — L1(measure, group weight) vs aggregation error " +
        f"(amean weights, paper rate 0.10%%)",
      Seq("grouping", "measure", "L1_to_weight", "agg_err"),
      rows.map(r => Seq(r.grouping, r.measure, Harness.fmt(r.l1), Harness.fmt(r.aggErr))))
    Result(rows, rendered)
  }
}
