package fpbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.expr
import repro.data.AdSchema
import scala.util.Random

/** One generated FORECAST task. The program only ever sees `stmt`; the
  * other fields let the benchmark route the task and check the answer.
  *
  * @param layer       store layer that answers it ("full" for the exact scan)
  * @param selectivity share of all rows of the relation its constraint matches
  */
final case class BenchTask(id: Int, stmt: String, measure: String, cond: String,
                           ts: Int, te: Int, forePeriod: Int, model: String,
                           layer: String, selectivity: Double)

/** A fixed pool of conjunctions of 2–3 predicates over distinct
  * [[AdSchema.Dimensions]]. Candidates are drawn from [[ConstraintPool.Seed]]
  * and kept when their selectivity on `df`, measured here with one
  * conditional count per candidate, is within [`lo`, `hi`]. The workload
  * seed picks from this pool. The pool is the benchmark's own, not the
  * program's task generator, so a change to that generator cannot change
  * the benchmark's inputs.
  */
final class ConstraintPool(df: DataFrame, size: Int = 64, lo: Double = 0.01, hi: Double = 0.20) {
  private val rng = new Random(ConstraintPool.Seed)

  private def predicate(dim: String): String = dim match {
    case "age" => s"age ${if (rng.nextBoolean()) "<=" else ">="} ${20 + rng.nextInt(56)}"
    case "gender" => s"gender = '${if (rng.nextBoolean()) "F" else "M"}'"
    case "occupation" => s"occupation ${Seq("=", "<=", ">=")(rng.nextInt(3))} ${rng.nextInt(10)}"
    case "city" =>
      if (rng.nextBoolean()) s"city <= ${rng.nextInt(30)}" else s"city = ${rng.nextInt(10)}"
    case "device" =>
      if (rng.nextInt(4) == 0) "device <> 'pc'"
      else s"device = '${Seq("mobile", "pc", "tablet")(rng.nextInt(3))}'"
    case tag => s"$tag = ${if (rng.nextInt(3) == 0) 0 else 1}"
  }

  private def candidate(): String = {
    val dims = rng.shuffle(AdSchema.Dimensions).take(2 + rng.nextInt(2)).sorted
    dims.map(predicate).mkString(" AND ")
  }

  /** (constraint SQL, selectivity) pairs, in the order drawn. */
  val entries: IndexedSeq[(String, Double)] = {
    val n = df.count().toDouble
    val kept = scala.collection.mutable.ArrayBuffer.empty[(String, Double)]
    var round = 0
    while (kept.size < size) {
      require(round < 20, s"constraint pool: only ${kept.size} of $size candidates in [$lo, $hi]")
      val cands = Seq.fill(128)(candidate()).distinct.filterNot(c => kept.exists(_._1 == c))
      val counts = df.select(cands.zipWithIndex.map { case (c, i) =>
        expr(s"sum(CASE WHEN $c THEN 1 ELSE 0 END)").as(s"c$i")
      }: _*).head()
      cands.indices.foreach { i =>
        val sel = counts.getLong(i) / n
        if (sel >= lo && sel <= hi && kept.size < size) kept += cands(i) -> sel
      }
      round += 1
    }
    kept.toIndexedSeq
  }
}

/** The seeded task stream. Task `i` is a pure function of (seed, i): the
  * seed picks its constraint from the pool and where the rotation over the
  * four measures starts. Window lengths, horizons and window ends follow
  * golden-ratio sequences that are the same for every seed, so any run of
  * consecutive tasks covers their ranges evenly and runs with different
  * seeds see the same mix of task sizes.
  *
  * @param days    days of data; every task's future window fits in them
  * @param layerOf store layer answering a task, from its index and measure
  */
final class TaskStream(pool: ConstraintPool, seed: Long, model: String, days: Int,
                       layerOf: (Int, String) => String) {
  private val firstMeasure = new Random(seed).nextInt(AdSchema.Measures.size)

  private def frac(k: Int, i: Int): Double = {
    val x = 0.5 + i * TaskStream.Steps(k)
    x - math.floor(x)
  }

  private def pick(k: Int, i: Int, lo: Int, hi: Int): Int =
    lo + math.min(hi - lo, (frac(k, i) * (hi - lo + 1)).toInt)

  /** Task `i`: its window and the FORE_PERIOD days after it fit within
    * the data, so every task has a future truth.
    */
  def apply(i: Int): BenchTask = {
    val measure = AdSchema.Measures((firstMeasure + i) % AdSchema.Measures.size)
    val (cond, sel) = pool.entries(new Random(seed * 1000003L + i).nextInt(pool.entries.size))
    val fp = pick(0, i, 7, 14)
    val len = pick(1, i, 28, math.min(150, days - fp))
    val te = pick(2, i, len - 1, days - 1 - fp)
    val ts = te - len + 1
    val stmt = s"FORECAST SUM($measure) FROM ad WHERE $cond USING ($ts, $te) " +
      s"OPTION (MODEL = '$model', FORE_PERIOD = $fp)"
    BenchTask(i, stmt, measure, cond, ts, te, fp, model, layerOf(i, measure), sel)
  }
}

object ConstraintPool {
  val Seed = 101L
}

object TaskStream {
  private val Steps = Array((math.sqrt(5.0) - 1) / 2, math.sqrt(2.0) - 1, math.sqrt(3.0) - 1)

  /** First id of the warm-up tasks, disjoint from the timed ones. */
  val WarmupBase = 1000000

  /** Seed of the warm-up stream: the same in every run, so the accuracy
    * set drawn from it is too.
    */
  val WarmupSeed = 0L

  /** First id of the tasks a traced run sends through layers its workload
    * does not use.
    */
  val ProbeBase = 2000000
}
