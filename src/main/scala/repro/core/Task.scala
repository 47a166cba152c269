package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{col, expr, lit}

/** A simple predicate on one dimension: `dim op literal`.
  *
  * Keeping constraints structured (rather than free-form SQL strings) is
  * what lets the PIM baseline evaluate its per-dimension factors; the
  * Spark estimator just renders them back to a Catalyst expression.
  *
  * @param dim     dimension column name
  * @param op      one of =, <>, <, <=, >, >=
  * @param literal the comparison value; `isString` controls SQL quoting
  */
final case class Pred(dim: String, op: String, literal: String, isString: Boolean) {
  require(Pred.Ops.contains(op), s"unsupported operator '$op'")

  /** SQL rendering, e.g. `age <= 30` or `gender = 'F'`. */
  def sql: String = {
    val l = if (isString) s"'${literal.replace("'", "''")}'" else literal
    s"$dim $op $l"
  }

  /** Catalyst column for pushing the predicate down onto full data/samples. */
  def column: Column = expr(sql)

  /** Evaluate against a single dimension value (as delivered by a collected
    * PIM cube row), with Catalyst's comparison rule: numeric when the
    * dimension is numeric or the literal is a bare number (a quoted literal
    * on a numeric dimension is cast, so `city <= '5'` means `city <= 5`),
    * and as strings otherwise.
    */
  def matches(value: String, numericDim: Boolean = false): Boolean = {
    val cmp: Int = (value.toDoubleOption, literal.toDoubleOption) match {
      case (Some(a), Some(b)) if numericDim || !isString => java.lang.Double.compare(a, b)
      case _                                             => value.compareTo(literal)
    }
    op match {
      case "="  => cmp == 0
      case "<>" => cmp != 0
      case "<"  => cmp < 0
      case "<=" => cmp <= 0
      case ">"  => cmp > 0
      case ">=" => cmp >= 0
    }
  }
}

object Pred {
  val Ops: Set[String] = Set("=", "<>", "<", "<=", ">", ">=")
}

/** A conjunction of per-dimension predicates — the constraint class C the
  * deployed system's Query Rewriter handles (any logical expression is
  * allowed by the language; conjunctions over distinct dimensions are what
  * both the paper's workload and the PIM baseline use).
  */
final case class Constraint(preds: Seq[Pred]) {

  /** SQL rendering; `TRUE` for the unconstrained task. */
  def sql: String = if (preds.isEmpty) "TRUE" else preds.map(_.sql).mkString(" AND ")

  /** Catalyst column for the conjunction. */
  def column: Column = preds.map(_.column).foldLeft(lit(true))(_ && _)

  def dims: Seq[String] = preds.map(_.dim).distinct
}

/** A parsed FORECAST task (paper language (1)):
  * {{{
  * FORECAST SUM(m) FROM T WHERE C USING (ts, te)
  *   OPTION (MODEL = 'model', FORE_PERIOD = n)
  * }}}
  *
  * @param measure    measure under SUM(·)
  * @param table      source relation name (informational)
  * @param constraint the slicing/dicing constraint C
  * @param ts         first training time stamp (inclusive)
  * @param te         last training time stamp (inclusive)
  * @param model      forecasting model name (default "arima")
  * @param forePeriod number of future time stamps to predict
  */
final case class ForecastTask(measure: String, table: String, constraint: Constraint,
                              ts: Int, te: Int, model: String = "arima",
                              forePeriod: Int = 7) {
  require(ts <= te, s"USING($ts,$te): start after end")
  require(forePeriod >= 1, "FORE_PERIOD must be >= 1")

  def trainingDays: Int = te - ts + 1

  def sql: String =
    s"FORECAST SUM($measure) FROM $table WHERE ${constraint.sql} USING ($ts, $te) " +
      s"OPTION (MODEL = '$model', FORE_PERIOD = $forePeriod)"
}

/** Recursive-descent-free parser for the FORECAST language: the grammar is
  * regular enough that anchored regexes are the clearest implementation.
  * Case-insensitive keywords; WHERE and OPTION clauses are optional.
  */
object TaskParser {

  private val Stmt =
    """(?is)\s*FORECAST\s+SUM\s*\(\s*(\w+)\s*\)\s+FROM\s+(\w+)\s*(?:WHERE\s+(.+?)\s*)?USING\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*(?:OPTION\s*\((.+?)\)\s*)?""".r

  private val PredRe =
    """(?s)\s*(\w+)\s*(<=|>=|<>|=|<|>)\s*(?:'([^']*)'|([\w.\-]+))\s*""".r

  /** Parse one FORECAST statement.
    * @throws IllegalArgumentException on malformed input, with a hint.
    */
  def parse(stmt: String): ForecastTask = stmt match {
    case Stmt(measure, table, whereOrNull, ts, te, optsOrNull) =>
      val constraint = Constraint(
        Option(whereOrNull).map(parseWhere).getOrElse(Seq.empty))
      val opts = Option(optsOrNull).map(parseOptions).getOrElse(Map.empty)
      ForecastTask(
        measure = measure.toLowerCase,
        table = table,
        constraint = constraint,
        ts = ts.toInt,
        te = te.toInt,
        model = opts.getOrElse("model", "arima"),
        forePeriod = opts.get("fore_period").map(_.toInt).getOrElse(7),
      )
    case _ =>
      throw new IllegalArgumentException(
        s"cannot parse FORECAST statement: '$stmt' — expected " +
          "FORECAST SUM(m) FROM T [WHERE C] USING (ts, te) [OPTION (...)]")
  }

  private def parseWhere(where: String): Seq[Pred] =
    where.split("(?i)\\s+AND\\s+").toSeq.map {
      case PredRe(dim, op, quoted, bare) =>
        if (quoted != null) Pred(dim.toLowerCase, op, quoted, isString = true)
        else Pred(dim.toLowerCase, op, bare, isString = bare.toDoubleOption.isEmpty)
      case other =>
        throw new IllegalArgumentException(
          s"cannot parse predicate '$other' — expected 'dim op literal'")
    }

  private def parseOptions(opts: String): Map[String, String] =
    opts.split(",").toSeq.map { kv =>
      val parts = kv.split("=", 2)
      require(parts.length == 2, s"cannot parse OPTION entry '$kv'")
      parts(0).trim.toLowerCase -> parts(1).trim.stripPrefix("'").stripSuffix("'")
    }.toMap
}
