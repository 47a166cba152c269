package fpbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.{PIM, SampleStore, StoredSample, TaskGen}
import repro.data.AdSchema
import repro.sampling.{GSW, IncrementalGSW, Priority, Sampler}
import scala.collection.mutable.ArrayBuffer

final case class RunResult(report: Report, correct: Boolean, attempted: Long, failed: Long,
                           failures: Seq[String])

/** Output checks of a set of answers: the ids that failed, with a reason,
  * and the accuracy figures computed on the way.
  */
final case class Checked(failures: Map[Int, String] = Map.empty, aggErrs: Map[Int, Double] = Map.empty,
                         fcErrs: Map[Int, Double] = Map.empty, matched: Map[Int, (Long, Long)] = Map.empty) {
  def ++(o: Checked): Checked = Checked(failures ++ o.failures, aggErrs ++ o.aggErrs,
    fcErrs ++ o.fcErrs, matched ++ o.matched)
}

/** GSW layers kept fresh day by day: they cover days `0 until day`. */
final case class GswState(day: Int, store: SampleStore, layers: Seq[GswLayer])

object Workloads {

  /** Days the offline probe loads with `IncrementalGSW.append`. */
  val ProbeDays = 2
  /** Tasks per warm-up pass, and the warm-up's time limits. */
  val WarmupPass = 8
  val WarmupMinSeconds = 8.0
  val WarmupMaxSeconds = 12.0
  /** Tasks a traced run sends through each layer its workload does not use. */
  val ProbeTasks = 6
  /** Accuracy is averaged over the first warm-up tasks. That set is the
    * same in every run, so forecast error changes only when the program's
    * answers do, and a faster program, which answers more tasks in the
    * measured loop, is judged on the same tasks. Only these warm-up tasks
    * are checked.
    */
  val AccuracyTasks = 32

  private def inAccuracySet(id: Int): Boolean =
    id >= TaskStream.WarmupBase && id < TaskStream.WarmupBase + AccuracyTasks

  /** Mean of an error over the accuracy set. */
  private def accuracy(errs: Map[Int, Double]): Double = {
    val set = errs.collect { case (id, e) if inAccuracySet(id) => e }.toSeq
    if (set.isEmpty) Double.NaN else Stats.mean(set)
  }

  private def optOrArith(i: Int, m: String): String = if (i % 2 == 0) s"opt-$m" else "arith"

  def run(opts: Opts, eng: Engine, phase: Phase): RunResult = opts.workload match {
    case "sample-arima" => taskWorkload(opts, eng, phase, onSample = true)
    case "full-lstm"    => taskWorkload(opts, eng, phase, onSample = false)
  }

  // ---------------------------------------------------------------- set-up

  /** Runs set-up [[Scale.SetupReps]] times, releasing every result but the
    * last. `body` returns its state with its data-generation and build
    * seconds.
    */
  private def setupReps[S](body: => (S, Double, Double))(release: S => Unit)
      : (S, Seq[Double], Seq[Double]) = {
    var last: Option[S] = None
    val gen = ArrayBuffer.empty[Double]
    val build = ArrayBuffer.empty[Double]
    (1 to Scale.SetupReps).foreach { _ =>
      last.foreach(release)
      val (s, g, b) = body
      System.err.println(f"fpbench: set-up repetition: datagen $g%.2f s, build $b%.2f s")
      last = Some(s); gen += g; build += b
    }
    (last.get, gen.toSeq, build.toSeq)
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def initialDays(full: DataFrame): DataFrame = full.filter(col("t") < Scale.InitialDays)

  private def dayBatch(full: DataFrame, day: Int): DataFrame = full.filter(col("t") === day)

  // ----------------------------------------------------------- task loops

  /** Untimed passes of [[WarmupPass]] fresh warm-up tasks each (a repeated
    * task would reuse Spark's compiled code and read faster than a new
    * one). Spark's driver code keeps getting faster for the first ~80
    * tasks, so passes continue for at least [[WarmupMinSeconds]], and then
    * while the pass median still falls by 3 %, up to [[WarmupMaxSeconds]].
    * The first [[AccuracyTasks]] warm-up tasks are the accuracy set.
    * Returns the pass medians and every warm-up answer.
    */
  private def warmUp(answer: Int => Outcome): (Seq[Double], Seq[Outcome]) = {
    val p50s = ArrayBuffer.empty[Double]
    val outs = ArrayBuffer.empty[Outcome]
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    def falling = p50s.size >= 2 && p50s.last < 0.97 * p50s(p50s.size - 2)
    while (outs.size < AccuracyTasks || elapsed < WarmupMinSeconds ||
      (falling && elapsed < WarmupMaxSeconds)) {
      val first = TaskStream.WarmupBase + outs.size
      val pass = (first until first + WarmupPass).map(answer)
      outs ++= pass
      p50s += Stats.median(pass.map(_.ms))
    }
    (p50s.toSeq, outs.toSeq)
  }

  /** Closed loop, one client: the next task is sent when the previous one
    * is answered, for `seconds` or [[Scale.MaxTasks]] tasks.
    */
  private def closedLoop(seconds: Double)(answer: Int => Outcome): (Seq[Outcome], Double) = {
    val outs = ArrayBuffer.empty[Outcome]
    val t0 = System.nanoTime()
    while ((System.nanoTime() - t0) / 1e9 < seconds && outs.size < Scale.MaxTasks)
      outs += answer(outs.size)
    (outs.toSeq, (System.nanoTime() - t0) / 1e9)
  }

  // --------------------------------------------------------------- checks

  /** Checks (a)–(c) on every answer, against reference sums the benchmark
    * computes from its own SQL: one pass over the full relation per chunk
    * of tasks gives the exact training series and the future truth, one
    * pass over each sample layer gives the Horvitz–Thompson series.
    */
  def check(outs: Seq[Outcome], full: DataFrame, layerDf: String => DataFrame): Checked = {
    val (ok, threw) = outs.partition(_.error.isEmpty)
    val last = Scale.Days - 1
    val exact = Checks.daySums(full, ok.map(_.task), _.measure, _.ts,
      t => math.min(t.te + t.forePeriod, last))
    val ht = ok.filter(_.task.layer != "full").groupBy(_.task.layer).flatMap { case (l, os) =>
      Checks.daySums(layerDf(l), os.map(_.task), t => Sampler.estCol(t.measure), _.ts, _.te)
    }
    val failures = Map.newBuilder[Int, String]
    threw.foreach(o => failures += o.task.id -> s"task ${o.task.id} threw ${o.error.get}")
    val aggErrs = Map.newBuilder[Int, Double]
    val fcErrs = Map.newBuilder[Int, Double]
    val matched = Map.newBuilder[Int, (Long, Long)]
    ok.foreach { o =>
      val t = o.task
      val (sums, counts) = exact(t.id)
      val len = t.te - t.ts + 1
      val train = sums.take(len)
      val truth = sums.drop(len)
      val seriesOk =
        if (t.layer == "full") {
          matched += t.id -> (counts.take(len).sum, -1L)
          Checks.equalSeries(o.series, train)
        } else {
          val (htSums, htCounts) = ht(t.id)
          matched += t.id -> (counts.take(len).sum, htCounts.sum)
          aggErrs += t.id -> Checks.meanRelError(o.series, train)
          Checks.closeSeries(o.series, htSums)
        }
      if (!seriesOk)
        failures += t.id -> s"task ${t.id}: series differs from the reference (${t.stmt})"
      else if (!Checks.saneForecast(o.forecast, t.forePeriod))
        failures += t.id -> s"task ${t.id}: forecast not finite or outside its band (${t.stmt})"
      if (truth.length == t.forePeriod) fcErrs += t.id -> Checks.meanRelError(o.forecast.point, truth)
    }
    Checked(failures.result(), aggErrs.result(), fcErrs.result(), matched.result())
  }

  // -------------------------------------------------------------- probes

  /** Exact scan and LSTM on a few tasks, for workloads that use neither. */
  private def probeFull(eng: Engine, pool: ConstraintPool, seed: Long, full: DataFrame): Checked = {
    val stream = new TaskStream(pool, seed, "lstm", Scale.Days, (_, _) => "full")
    val outs = (0 until ProbeTasks).map(i =>
      eng.answerTraced(stream(TaskStream.ProbeBase + i), full, _ => sys.error("no sample layer")))
    check(outs, full, _ => sys.error("no sample layer"))
  }

  /** GSW layers and ARIMA tasks on them, for the workload that uses neither. */
  private def probeSample(eng: Engine, pool: ConstraintPool, seed: Long, full: DataFrame): Checked = {
    val store = new SampleStore
    eng.buildGsw(full, store, eng.traced)
    val stream = new TaskStream(pool, seed, "arima", Scale.Days, optOrArith)
    val outs = (0 until ProbeTasks).map(i =>
      eng.answerTraced(stream(TaskStream.ProbeBase + i), full, store.get))
    val c = check(outs, full, store.get(_).df)
    store.clear()
    c
  }

  /** The whole offline store over the first [[Scale.InitialDays]] days: GSW
    * layers (Δ search and sample), a priority sample per measure, the PIM
    * cube and the task generator's pool selectivity. Then [[ProbeDays]]
    * daily refreshes of every GSW layer, ending with check (d).
    */
  private def probeOffline(eng: Engine, full: DataFrame): Checked = {
    val tr = eng.traced
    val initial = initialDays(full)
    val gswStore = new SampleStore
    var st = GswState(Scale.InitialDays, gswStore, eng.buildGsw(initial, gswStore, tr))
    val priorityStore = new SampleStore
    val k = (Scale.Rate * Scale.RowsPerDay).toInt
    AdSchema.Measures.foreach { m =>
      tr.span("priority.sample")(
        eng.add(priorityStore, s"priority-$m", Priority(k, m), initial, tr, "priority.sample"))
    }
    eng.cubeRows += tr.span("pim.build")(new PIM(initial, AdSchema.Measures, AdSchema.Dimensions)).cubeRows
    tr.span("taskgen.selectivity")(new TaskGen(initial).selectivity.size)
    (1 to ProbeDays).foreach { _ =>
      val next = refresh(eng, full, st)
      if (st.store ne gswStore) st.store.clear()
      st = next
    }
    val failures = checkAppended(full, st)
    Seq(st.store, gswStore, priorityStore).foreach(_.clear())
    Checked(failures = failures.zipWithIndex.map { case (f, i) => -(i + 1) -> f }.toMap)
  }

  // ------------------------------------------------ sample-arima, full-lstm

  private def taskWorkload(opts: Opts, eng: Engine, phase: Phase, onSample: Boolean): RunResult = {
    val report = new Report
    val sparkS = Engine.sinceJvmStart()
    val tr = if (opts.trace) eng.traced else eng.untraced
    val ((full, store), gen, build) = phase("set-up") {
      setupReps {
        val (full, g) = timed(eng.datagen(tr))
        val store = new SampleStore
        val (_, b) = timed(if (onSample) eng.buildGsw(full, store, tr) else Nil)
        ((full, store), g, b)
      } { case (f, s) => s.clear(); f.unpersist() }
    }
    val heap = phase("heap")(eng.heapMb())
    val storeRows = if (onSample) store.all.map(_.rows).sum else full.count()
    val pool = phase("task stream")(new ConstraintPool(full))
    def streamOf(seed: Long) = new TaskStream(pool, seed, if (onSample) "arima" else "lstm",
      Scale.Days, if (onSample) optOrArith else (_, _) => "full")
    val stream = streamOf(opts.seed)
    val answer = (i: Int) => eng.answer(stream(i), full, store.get)
    val warmStream = streamOf(TaskStream.WarmupSeed)
    val (warm, warmOuts) = phase("warm-up")(warmUp(i => eng.answer(warmStream(i), full, store.get)))
    // A traced run traces every other task of the loop; the untraced ones
    // between them, equally warm, give the tracing overhead.
    val (outs, elapsed) = phase("measured loop")(closedLoop(opts.seconds) { i =>
      if (opts.trace && i % 2 == 1) eng.answerTraced(stream(i), full, store.get) else answer(i)
    })
    val accOuts = warmOuts.take(AccuracyTasks)
    var checked = phase("output checks")(check(accOuts ++ outs, full, store.get(_).df))
    writeStream(opts, outs, accOuts, checked)

    val lat = outs.filter(_.error.isEmpty).map(_.ms)
    var attempted = accOuts.size + outs.size
    if (opts.trace) {
      checked = checked ++ phase("probes") {
        (if (onSample) probeFull(eng, pool, opts.seed, full)
         else probeSample(eng, pool, opts.seed, full)) ++ probeOffline(eng, full)
      }
      attempted += ProbeTasks + Engine.GswSpecs.size
      val untracedP50 = Stats.median(outs.filter(o => o.task.id % 2 == 0 && o.error.isEmpty).map(_.ms))
      layerMetrics(report, eng, opts, untracedP50, checked, build)
    } else {
      endToEnd(report, sparkS, gen, build, lat, elapsed, checked, storeRows, heap)
    }
    report.note("warmup.passes", warm.size, "count")
    report.note("warmup.tasks", warmOuts.size, "count")
    report.note("warmup.last_p50_ms", warm.last, "ms")
    notes(report, lat, attempted, checked)
    if (onSample) report.note("agg_rel_err", accuracy(checked.aggErrs), "frac")
    report.note("build_s", Stats.median(build), "s")
    store.clear(); full.unpersist()
    result(report, attempted, checked)
  }


  /** Loads day `d = st.day`: every GSW layer, which covers `d` days, is
    * extended with `IncrementalGSW.append` at Δ′ = Δ·(d+1)/d and registered
    * in a new store. The append is lazy, so its span also
    * holds the `store.add` that materializes it. The rows each append
    * dropped and added are counted outside the spans.
    */
  private def refresh(eng: Engine, full: DataFrame, st: GswState): GswState = {
    val tr = eng.traced
    val batch = dayBatch(full, st.day)
    val store = new SampleStore
    val layers = st.layers.map { l =>
      val delta = l.delta * (st.day + 1) / st.day
      val stored = tr.span("incremental.append") {
        val df = IncrementalGSW.append(l.stored.df, delta, batch, Engine.gsw(l.ms, delta))
        eng.add(store, l.name, Engine.Computed(df, l.ms, l.name), full, tr, "incremental")
      }
      val kept = IncrementalGSW.raise(l.stored.df, delta, l.ms).count()
      eng.rowsDropped += l.stored.rows - kept
      eng.rowsAdded += stored.rows - kept
      l.copy(delta = delta, stored = stored)
    }
    GswState(st.day + 1, store, layers)
  }

  /** Check (d): each refreshed layer holds the rows of a fresh GSW sample
    * at its final Δ′ of every day it covers, drawn batch by batch as the
    * days were loaded (the initial days, then one batch per day), so each
    * row sees the same uniform draw.
    */
  private def checkAppended(full: DataFrame, st: GswState): Seq[String] = {
    val batches = initialDays(full) +:
      (Scale.InitialDays until st.day).map(dayBatch(full, _))
    st.layers.flatMap { l =>
      val fresh = batches.map(b => Engine.gsw(l.ms, l.delta).sample(b)).reduce(_ unionByName _)
      val same = Checks.sameSample(l.stored.df, fresh, l.ms.map(Sampler.estCol),
        Seq("t", GSW.DrawCol, GSW.WeightCol))
      if (same) None
      else Some(s"layer ${l.name}: appended sample differs from a fresh GSW sample at " +
        f"Δ′=${l.delta}%.3f over days 0..${st.day - 1}")
    }
  }

  // ------------------------------------------------------------ metrics

  /** The end-to-end metrics, from a run with tracing off. */
  private def endToEnd(r: Report, sparkS: Double, gen: Seq[Double], build: Seq[Double],
                       lat: Seq[Double], elapsed: Double, c: Checked, storeRows: Long,
                       heap: Double): Unit = {
    r.metric("setup_s", sparkS + Stats.median(gen.indices.map(i => gen(i) + build(i))), "s")
    r.metric("task_p50_ms", Stats.percentile(lat, 0.5), "ms")
    r.metric("task_p90_ms", Stats.percentile(lat, 0.9), "ms")
    r.metric("tasks_per_s", lat.size / elapsed, "1/s")
    r.metric("fc_rel_err", accuracy(c.fcErrs), "frac")
    r.metric("store_rows", storeRows.toDouble, "rows")
    r.metric("heap_mb", heap, "MB")
  }

  private def notes(r: Report, lat: Seq[Double], attempted: Int, c: Checked): Unit = {
    r.note("task.samples", lat.size, "count")
    if (lat.size >= 2) {
      val q = Stats.quantiles(lat)
      r.note("task_q1_ms", q(0), "ms")
      r.note("task_q3_ms", q(2), "ms")
    }
    r.note("failed_frac", c.failures.size.toDouble / math.max(1, attempted), "frac")
    r.note("fc_rel_err.samples", c.fcErrs.keys.count(inAccuracySet), "count")
  }

  /** The per-layer metrics, from the spans of a traced run. Timings are
    * medians per call unless named otherwise; shares are of the time of the
    * workload's own tasks.
    */
  private def layerMetrics(r: Report, eng: Engine, opts: Opts, untracedP50: Double,
                           c: Checked, build: Seq[Double]): Unit = {
    val spans = eng.traced.spans
    val byId = spans.map(s => s.id -> s).toMap
    val work = Tracer.inclusive(spans, eng.work.snapshot)
    def named(n: String) = spans.filter(_.name == n)
    def p(n: String, q: Double) = Stats.percentile(named(n).map(_.ms), q)
    def perCall(n: String)(f: SparkWork => Long) = Stats.median(named(n).map(s => f(work(s.id)).toDouble))
    def execFrac(n: String) = named(n).map(s => work(s.id).execRunMs.toDouble).sum / named(n).map(_.ms).sum
    def rowsOf(n: String)(f: ((Long, Long)) => Long) =
      Stats.median(named(n).flatMap(s => eng.spanRows.get(s.id)).map(x => f(x).toDouble))
    def own(s: Span) = s.task >= 0 && s.task < TaskStream.WarmupBase
    val ownTasks = spans.filter(s => s.name == "task" && own(s))
    val ownTotal = ownTasks.map(_.ms).sum
    def share(n: String) = spans.filter(s => s.name == n && own(s)).map(_.ms).sum / ownTotal
    def rowsAdded(kind: String) = Stats.median(eng.addedRows.filter(_._1 == kind).map(_._2.toDouble).toSeq)

    r.metric("parse.us_p50", Stats.median(named("parse").map(_.durNs / 1e3)), "us")
    r.metric("estimator.sample.ms_p50", p("estimator.sample", 0.5), "ms")
    r.metric("estimator.sample.ms_p90", p("estimator.sample", 0.9), "ms")
    r.metric("estimator.sample.share", share("estimator.sample"), "frac")
    r.metric("estimator.sample.spark_jobs", perCall("estimator.sample")(_.jobs), "count")
    r.metric("estimator.sample.spark_stages", perCall("estimator.sample")(_.stages), "count")
    r.metric("estimator.sample.spark_tasks", perCall("estimator.sample")(_.tasks), "count")
    r.metric("estimator.sample.exec_frac", execFrac("estimator.sample"), "frac")
    r.metric("estimator.sample.rows_scanned", rowsOf("estimator.sample")(_._1), "rows")
    r.metric("estimator.sample.rows_matched", rowsOf("estimator.sample")(_._2), "rows")
    r.metric("estimator.sample.agg_rel_err", Stats.mean(c.aggErrs.values.toSeq), "frac")
    r.metric("estimator.full.ms_p50", p("estimator.full", 0.5), "ms")
    r.metric("estimator.full.spark_tasks", perCall("estimator.full")(_.tasks), "count")
    r.metric("estimator.full.exec_frac", execFrac("estimator.full"), "frac")
    r.metric("estimator.full.rows_scanned", rowsOf("estimator.full")(_._1), "rows")
    r.metric("exp2.gap", p("estimator.full", 0.5) / p("estimator.sample", 0.5), "ratio")
    r.metric("exp2.base_full_ms", p("estimator.full", 0.5), "ms")
    r.metric("exp2.base_sample_ms", p("estimator.sample", 0.5), "ms")
    r.metric("arima.ms_p50", p("arima", 0.5), "ms")
    r.metric("arima.share", share("arima"), "frac")
    r.metric("lstm.ms_p50", p("lstm", 0.5), "ms")
    r.metric("lstm.share", share("lstm"), "frac")
    r.metric("gsw.delta_search.ms", p("gsw.delta_search", 0.5), "ms")
    r.metric("gsw.delta_search.spark_jobs", perCall("gsw.delta_search")(_.jobs), "count")
    r.metric("gsw.sample.ms", Stats.median(named("store.add")
      .filter(s => byId.get(s.parent).exists(_.name == "gsw.build")).map(_.ms)), "ms")
    r.metric("gsw.sample.rows", rowsAdded("gsw.sample"), "rows")
    r.metric("priority.sample.ms", p("priority.sample", 0.5), "ms")
    r.metric("priority.sample.spark_tasks", perCall("priority.sample")(_.tasks), "count")
    r.metric("pim.build.ms", p("pim.build", 0.5), "ms")
    r.metric("pim.build.spark_jobs", perCall("pim.build")(_.jobs), "count")
    r.metric("pim.cube_rows", Stats.median(eng.cubeRows.map(_.toDouble).toSeq), "rows")
    r.metric("taskgen.selectivity.ms", p("taskgen.selectivity", 0.5), "ms")
    r.metric("incremental.append.ms", p("incremental.append", 0.5), "ms")
    r.metric("incremental.rows_dropped", Stats.median(eng.rowsDropped.map(_.toDouble).toSeq), "rows")
    r.metric("incremental.rows_added", Stats.median(eng.rowsAdded.map(_.toDouble).toSeq), "rows")
    r.metric("store.add.ms", p("store.add", 0.5), "ms")
    r.metric("store.layer_rows", Stats.median(eng.addedRows.map(_._2.toDouble).toSeq), "rows")
    r.metric("datagen.ms", p("datagen", 0.5), "ms")
    r.metric("build.ms", Stats.median(build) * 1e3, "ms")
    val total = eng.work.total
    r.metric("spark.jobs", total.jobs.toDouble, "count")
    r.metric("spark.tasks", total.tasks.toDouble, "count")
    r.metric("trace.overhead_frac",
      (Stats.median(ownTasks.map(_.ms)) - untracedP50) / untracedP50, "frac")
    writeSpans(opts, spans, work)
  }

  // ------------------------------------------------------------- outputs

  private def result(r: Report, attempted: Int, c: Checked,
                     extraFailures: Seq[String] = Nil): RunResult = {
    val failures = c.failures.values.toSeq.sorted ++ extraFailures
    RunResult(r, failures.isEmpty, attempted, failures.size, failures)
  }

  /** The tasks of the measured loop, then the warm-up tasks of the
    * accuracy set, as
    * the program saw them: the selectivity of their constraint, the rows it
    * matched in the window (full relation, and sample layer or -1), latency,
    * forecast error and check status.
    */
  private def writeStream(opts: Opts, timed: Seq[Outcome], untimed: Seq[Outcome], c: Checked): Unit = {
    val pw = new java.io.PrintWriter(new java.io.File(opts.out, "stream.tsv"), "UTF-8")
    try {
      pw.println("id\ttimed\tlayer\tselectivity\tfull_rows_matched\tlayer_rows_matched\tms\t" +
        "fc_rel_err\tstatus\tstatement")
      (timed.map(_ -> 1) ++ untimed.map(_ -> 0)).foreach { case (o, isTimed) =>
        val t = o.task
        val (fullRows, layerRows) = c.matched.getOrElse(t.id, (-1L, -1L))
        val fcErr = c.fcErrs.get(t.id).fold("")(e => f"$e%.5f")
        val status = c.failures.get(t.id).fold("ok")(_ => "failed")
        pw.println(f"${t.id}\t$isTimed\t${t.layer}\t${t.selectivity}%.5f\t$fullRows\t$layerRows\t" +
          f"${o.ms}%.3f\t$fcErr\t$status\t${t.stmt}")
      }
    } finally pw.close()
  }

  /** Every span of a traced run with its self time and Spark work. */
  private def writeSpans(opts: Opts, spans: Seq[Span], work: Map[Int, SparkWork]): Unit = {
      val self = Span.selfTimes(spans)
      val pw = new java.io.PrintWriter(new java.io.File(opts.out, "spans.jsonl"), "UTF-8")
      try spans.sortBy(_.id).foreach { s =>
        val w = work(s.id)
        pw.println(s"""{"id": ${s.id}, "name": ${Report.str(s.name)}, "parent": ${s.parent}, """ +
          s""""task": ${s.task}, "start_ns": ${s.startNs}, "end_ns": ${s.endNs}, """ +
          s""""self_ns": ${self(s.id)}, "spark_jobs": ${w.jobs}, "spark_stages": ${w.stages}, """ +
          s""""spark_tasks": ${w.tasks}, "exec_run_ms": ${w.execRunMs}}""")
      } finally pw.close()
    }
}
