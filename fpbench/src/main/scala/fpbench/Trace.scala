package fpbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `parent` is -1 for a root span; `task` is
  * the id of the FORECAST task the call served, -1 for offline work.
  */
final case class Span(id: Int, name: String, parent: Int, task: Int,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
  def ms: Double = durNs / 1e6
}

object Span {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its direct children (overlapping children counted once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durNs - covered)
    }.toMap
  }
}

/** Spark work done on behalf of one span. */
final case class SparkWork(jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
                           execRunMs: Long = 0) {
  def +(o: SparkWork): SparkWork =
    SparkWork(jobs + o.jobs, stages + o.stages, tasks + o.tasks, execRunMs + o.execRunMs)
}

/** Attributes every Spark job, stage and task to the span that was open
  * when the job was submitted. The [[Tracer]] publishes the open span's id
  * as a local property, which Spark copies onto each job and stage.
  * Work submitted with no span open is kept under id -1.
  */
final class SparkWorkListener extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val work = new ConcurrentHashMap[Int, SparkWork]()

  private def spanOf(props: java.util.Properties): Int =
    Option(props).flatMap(p => Option(p.getProperty(Tracer.SpanProperty)))
      .map(_.toInt).getOrElse(-1)

  private def add(span: Int, w: SparkWork): Unit =
    work.merge(span, w, (a: SparkWork, b: SparkWork) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    add(spanOf(e.properties), SparkWork(jobs = 1))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val span = spanOf(e.properties)
    stageSpan.put(e.stageInfo.stageId, span)
    add(span, SparkWork(stages = 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = stageSpan.getOrDefault(e.stageId, -1)
    val run = Option(e.taskMetrics).map(_.executorRunTime).getOrElse(0L)
    add(span, SparkWork(tasks = 1, execRunMs = run))
  }

  /** Work per span id, as seen so far. */
  def snapshot: Map[Int, SparkWork] = work.asScala.toMap

  def total: SparkWork = snapshot.values.foldLeft(SparkWork())(_ + _)
}

/** Records spans around calls into the program's layers. Spans are kept in
  * memory and written out when the run ends. A disabled tracer runs the
  * body and records nothing.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val recorded = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String, task: Int = -1)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open ::= id
      sc.setLocalProperty(Tracer.SpanProperty, id.toString)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        sc.setLocalProperty(Tracer.SpanProperty, open.headOption.map(_.toString).orNull)
        recorded += Span(id, name, parent, task, t0, t1)
      }
    }

  def spans: Seq[Span] = recorded.toSeq
}

object Tracer {
  val SpanProperty = "fpbench.span"

  /** Spark work of each span including its descendants'. */
  def inclusive(spans: Seq[Span], own: Map[Int, SparkWork]): Map[Int, SparkWork] = {
    val acc = scala.collection.mutable.Map.empty[Int, SparkWork]
    spans.foreach(s => acc(s.id) = own.getOrElse(s.id, SparkWork()))
    // A child opens after its parent, so it has the larger id.
    spans.sortBy(-_.id).foreach { s =>
      if (s.parent >= 0 && acc.contains(s.parent)) acc(s.parent) = acc(s.parent) + acc(s.id)
    }
    acc.toMap
  }
}
