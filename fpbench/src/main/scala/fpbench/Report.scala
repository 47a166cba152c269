package fpbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Metrics and notes of one run. Metrics go onto the result line; notes
  * (sample counts, warm-up length, metrics that do not apply to every
  * workload) are printed beside them and written to `results.json`.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes = mutable.LinkedHashMap.empty[String, (Double, String)]

  def metric(name: String, value: Double, unit: String): Unit = {
    require(java.lang.Double.isFinite(value), s"metric $name is not finite: $value")
    metrics(name) = (value, unit)
  }

  def note(name: String, value: Double, unit: String): Unit = notes(name) = (value, unit)

  def metricNames: Seq[String] = metrics.keys.toSeq

  /** Human-readable table: every metric and note with its unit. */
  def table: String = {
    def rows(kind: String, m: mutable.LinkedHashMap[String, (Double, String)]) =
      m.map { case (k, (v, u)) => f"  $kind%-6s $k%-34s ${Report.num(v)}%16s $u" }
    (rows("metric", metrics) ++ rows("note", notes)).mkString("\n")
  }

  def resultLine(correct: Boolean, attempted: Long, failed: Long): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${Report.obj(metrics)}}"""

  def write(file: File, correct: Boolean, attempted: Long, failed: Long,
            extra: Map[String, String]): Unit = {
    val pw = new PrintWriter(file, "UTF-8")
    try {
      val ex = extra.map { case (k, v) => s"${Report.str(k)}: ${Report.str(v)}" }
      pw.println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
        s""""metrics": ${Report.obj(metrics)}, "notes": ${Report.obj(notes)}""" +
        (if (ex.isEmpty) "" else ex.mkString(", ", ", ", "")) + "}")
    } finally pw.close()
  }
}

object Report {
  def num(v: Double): String =
    if (!java.lang.Double.isFinite(v)) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case '\t' => "\\t"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def obj(m: mutable.LinkedHashMap[String, (Double, String)]): String =
    m.map { case (k, (v, u)) => s"""${str(k)}: {"value": ${num(v)}, "unit": ${str(u)}}""" }
      .mkString("{", ", ", "}")
}
