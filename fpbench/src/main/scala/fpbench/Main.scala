package fpbench

import java.io.File
import org.apache.spark.sql.SparkSession

/** Command-line options of one benchmark run. */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: File)

object Opts {
  val Workloads: Seq[String] = Seq("sample-arima", "full-lstm")

  val Usage: String =
    "usage: fpbench.Main --workload <" + Workloads.mkString("|") + "> --seed <n> " +
      "--seconds <s> --trace <0|1> --out <dir>"

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, Usage)
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k; $Usage"))
    val w = get("--workload")
    require(Workloads.contains(w), s"unknown workload '$w'; $Usage")
    val trace = get("--trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1; $Usage")
    val seconds = get("--seconds").toDouble
    require(seconds > 0, s"--seconds must be positive; $Usage")
    Opts(w, get("--seed").toLong, seconds, trace == "1", new File(get("--out")))
  }
}

/** Entry point: runs one workload and prints its metrics, then the result
  * line, on standard output. Any exception outside a task names the
  * workload and phase and exits with status 1, without a result line.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = try Opts.parse(args) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    opts.out.mkdirs()
    val phase = new Phase
    var spark: SparkSession = null
    val status =
      try {
        spark = phase("spark start") {
          val cores = Runtime.getRuntime.availableProcessors()
          SparkSession.builder()
            .master(s"local[$cores]")
            .appName(s"fpbench-${opts.workload}")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.ui.enabled", "false")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.local.dir", new File(opts.out, "spark-local").getPath)
            .config("spark.sql.warehouse.dir", new File(opts.out, "warehouse").getPath)
            .getOrCreate()
        }
        spark.sparkContext.setLogLevel("WARN")
        val res = Workloads.run(opts, new Engine(spark), phase)
        println(res.report.table)
        res.report.write(new File(opts.out, "results.json"), res.correct, res.attempted,
          res.failed, Map("workload" -> opts.workload, "seed" -> opts.seed.toString))
        if (res.failures.nonEmpty)
          System.err.println(s"fpbench: ${opts.workload}: ${res.failed} failed:\n  " +
            res.failures.take(20).mkString("\n  "))
        println(res.report.resultLine(res.correct, res.attempted, res.failed))
        if (res.correct) 0 else 1
      } catch {
        case e: Throwable =>
          System.err.println(s"fpbench: workload '${opts.workload}' failed in phase " +
            s"'${phase.current}': $e")
          e.printStackTrace(System.err)
          1
      } finally {
        if (spark != null) spark.stop()
      }
    System.out.flush()
    sys.exit(status)
  }
}

/** The phase a run is in, named in the message when it fails. Each phase
  * is logged to standard error with the seconds since JVM start.
  */
final class Phase {
  @volatile var current: String = "start"
  def apply[A](name: String)(body: => A): A = {
    current = name
    System.err.println(f"fpbench: ${Engine.sinceJvmStart()}%7.2f s  $name")
    body
  }
}
