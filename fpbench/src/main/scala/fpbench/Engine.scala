package fpbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.FpbenchBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{FilterExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core.{Estimator, FlashP, SampleStore, StoredSample, TaskParser}
import repro.data.AdSchema
import repro.forecast.Forecast
import repro.sampling.{GSW, Sampler}
import scala.collection.mutable.ArrayBuffer

/** The fixed scale every workload runs at. */
object Scale {
  val Sf = 0.0002
  val Days = 158
  val GenSeed = 7L
  val RowsPerDay: Long = (15000000L * Sf).toLong
  /** Sampling rate of every layer. */
  val Rate = 0.05
  /** Days the offline store of a traced run is built over. */
  val InitialDays = 120
  /** Set-up repetitions per run; set-up metrics are their medians. */
  val SetupReps = 3
  /** Upper bound on tasks in one measured loop, so the output checks of a
    * much faster program still finish within the run's time limit.
    */
  val MaxTasks = 3000
}

/** Rows scanned and matched by each Spark SQL query, read from the executed
  * plan's metrics: the in-memory scans' output rows and the filters'.
  */
final class RowsListener extends QueryExecutionListener {
  private val seen = new ConcurrentLinkedQueue[(Long, Long)]()

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val nodes = RowsListener.nodes(qe.executedPlan)
    def rows(p: SparkPlan) = p.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    seen.add((nodes.collect { case s: InMemoryTableScanExec => rows(s) }.sum,
              nodes.collect { case f: FilterExec => rows(f) }.sum))
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** (scanned, matched) of every query finished since the last call. */
  def takeAll(): Seq[(Long, Long)] = {
    val out = ArrayBuffer.empty[(Long, Long)]
    var x = seen.poll()
    while (x != null) { out += x; x = seen.poll() }
    out.toSeq
  }
}

object RowsListener {
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case q: QueryStageExec => q +: nodes(q.plan)
    case other => other +: other.children.flatMap(nodes)
  }
}

/** A GSW layer of the store with the Δ it was drawn at. */
final case class GswLayer(name: String, ms: Seq[String], delta: Double, stored: StoredSample)

/** The answer to one task, with its latency and any failure. */
final case class Outcome(task: BenchTask, ms: Double, series: Array[Double],
                         forecast: Forecast, error: Option[String])

/** The Spark session and listeners of one run, and the calls into the
  * program's layers that every workload shares.
  */
final class Engine(val spark: SparkSession) {
  val sc = spark.sparkContext
  val work = new SparkWorkListener
  sc.addSparkListener(work)
  val rows = new RowsListener
  spark.listenerManager.register(rows)
  val untraced = new Tracer(sc, enabled = false)
  val traced = new Tracer(sc, enabled = true)
  /** Estimator span id -> (rows scanned, rows matched). */
  val spanRows = scala.collection.mutable.Map.empty[Int, (Long, Long)]
  /** Offline-store figures recorded while traced. */
  val cubeRows = ArrayBuffer.empty[Long]
  val rowsDropped = ArrayBuffer.empty[Long]
  val rowsAdded = ArrayBuffer.empty[Long]
  /** (kind, rows) of every layer added to a store while traced. */
  val addedRows = ArrayBuffer.empty[(String, Long)]

  /** `store.add` in its own span, recording the layer's rows when traced. */
  def add(store: SampleStore, name: String, sampler: Sampler, df: DataFrame,
          tr: Tracer, kind: String): StoredSample = {
    val stored = tr.span("store.add")(store.add(name, sampler, df))
    if (tr.enabled) addedRows += kind -> stored.rows
    stored
  }

  def datagen(tr: Tracer): DataFrame = tr.span("datagen") {
    val df = SynthData.adTraffic(spark, Scale.Sf, Scale.Days, Scale.GenSeed)
      .persist(StorageLevel.MEMORY_ONLY)
    df.count()
    df
  }

  /** One Opt-GSW layer per measure and one arithmetic C-GSW layer serving
    * all four, each at [[Scale.Rate]] of `df`.
    */
  def buildGsw(df: DataFrame, store: SampleStore, tr: Tracer): Seq[GswLayer] =
    Engine.GswSpecs.map { case (name, ms) =>
      tr.span("gsw.build") {
        val weight = Engine.gsw(ms, 1.0).weight
        val delta = tr.span("gsw.delta_search")(GSW.deltaForRate(df, weight, Scale.Rate))
        val stored = add(store, name, Engine.gsw(ms, delta), df, tr, "gsw.sample")
        GswLayer(name, ms, delta, stored)
      }
    }

  /** Parse and answer one task the way a user does, timed from statement
    * to forecast.
    */
  def answer(t: BenchTask, full: DataFrame, sampleOf: String => StoredSample): Outcome = {
    val t0 = System.nanoTime()
    try {
      val task = TaskParser.parse(t.stmt)
      val res =
        if (t.layer == "full") FlashP.runOnFull(task, full)
        else FlashP.runOnSample(task, sampleOf(t.layer))
      Outcome(t, (System.nanoTime() - t0) / 1e6, res.series, res.forecast, None)
    } catch {
      case e: Exception => Outcome(t, (System.nanoTime() - t0) / 1e6, null, null, Some(e.toString))
    }
  }

  /** The same task with every layer call in its own span, in the order
    * `FlashP.run*` makes them: parse, estimator, forecaster. Rows scanned
    * and matched are read from the listener outside the task span.
    */
  def answerTraced(t: BenchTask, full: DataFrame, sampleOf: String => StoredSample): Outcome = {
    FpbenchBus.drain(sc)
    rows.takeAll() // queries of earlier, untraced calls
    val t0 = System.nanoTime()
    val out = try {
      val (series, fc) = traced.span("task", t.id) {
        val task = traced.span("parse", t.id)(TaskParser.parse(t.stmt))
        val series =
          if (t.layer == "full") traced.span("estimator.full", t.id)(Estimator.exactSeries(full, task))
          else traced.span("estimator.sample", t.id)(
            Estimator.estimateSeries(sampleOf(t.layer).df, task))
        val fc = traced.span(t.model, t.id)(
          FlashP.forecasterFor(task.model).fitForecast(series, task.forePeriod, 0.9))
        (series, fc)
      }
      Outcome(t, (System.nanoTime() - t0) / 1e6, series, fc, None)
    } catch {
      case e: Exception => Outcome(t, (System.nanoTime() - t0) / 1e6, null, null, Some(e.toString))
    }
    FpbenchBus.drain(sc)
    val est = traced.spans.reverseIterator.find(s => s.task == t.id && s.name.startsWith("estimator."))
    val seen = rows.takeAll()
    est.foreach(s => spanRows(s.id) = (seen.map(_._1).sum, seen.map(_._2).sum))
    out
  }

  /** Heap in use after set-up, after forcing collection. */
  def heapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(50) }
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

object Engine {
  val GswSpecs: Seq[(String, Seq[String])] =
    AdSchema.Measures.map(m => s"opt-$m" -> Seq(m)) :+ ("arith" -> AdSchema.Measures)

  /** Opt-GSW for one measure, arithmetic C-GSW for several. */
  def gsw(ms: Seq[String], delta: Double): GSW =
    if (ms.size == 1) GSW.optimal(delta, ms.head) else GSW.arithmetic(delta, ms)

  /** Hands an already computed sample to `SampleStore.add`, the store's
    * only way in, which caches and counts it.
    */
  final case class Computed(df: DataFrame, measures: Seq[String], name: String) extends Sampler {
    override def sample(ignored: DataFrame): DataFrame = df
  }

  /** Seconds from JVM start to now. */
  def sinceJvmStart(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
}
