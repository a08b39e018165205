module Design_solver = Ds_solver.Design_solver
module Exec = Ds_exec.Exec

type t = {
  solver : Design_solver.params;
  human_attempts : int;
  random_attempts : int;
  space_samples : int;
  domains : int;
  restarts : int;
  race : bool;
  portfolio_evaluations : int option;
}

let default =
  { solver = Design_solver.default_params;
    human_attempts = 30;
    random_attempts = 150;
    space_samples = 20_000;
    domains = 1;
    restarts = 1;
    race = false;
    portfolio_evaluations = None }

let quick =
  { solver =
      { Design_solver.default_params with
        Design_solver.refit_rounds = 4; depth = 3; stage1_restarts = 3 };
    human_attempts = 10;
    random_attempts = 40;
    space_samples = 4_000;
    domains = 1;
    restarts = 1;
    race = false;
    portfolio_evaluations = None }

let with_seed t seed =
  { t with solver = { t.solver with Design_solver.seed } }

let with_domains t domains =
  { t with domains; solver = { t.solver with Design_solver.domains } }

let sequential t = with_domains t 1

let sweep t =
  let pool = Exec.create ~domains:(max 1 t.domains) () in
  (pool, if Exec.domains pool > 1 then sequential t else t)

let with_portfolio ?(race = false) ?max_evaluations t restarts =
  if restarts < 1 then invalid_arg "Budgets.with_portfolio: restarts >= 1";
  { t with restarts; race; portfolio_evaluations = max_evaluations }
